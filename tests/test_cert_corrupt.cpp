// Corrupt-certificate rejection sweep for the trusted kernel: every
// tampering mode — altered hints, reordered steps, bad or missing
// deletions, truncated files, a certificate that never derives the empty
// clause — must REJECT with a diagnostic naming the offending line (text)
// or record index (binary). The kernel is the trust anchor of the whole
// certificate pipeline, so its rejection behavior is pinned as precisely
// as its acceptance behavior.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/cert/kernel.hpp"

namespace satproof {
namespace {

// An 8-clause UNSAT fixture (every assignment falsified by construction).
constexpr const char* kCnf =
    "p cnf 4 8\n"
    "1 2 0\n"
    "1 -2 0\n"
    "-1 3 0\n"
    "-1 -3 0\n"
    "2 4 0\n"
    "-2 -4 0\n"
    "3 -4 0\n"
    "-3 4 0\n";

// The canonical valid certificate: derive {1} from clauses 1,2, then the
// empty clause from 9 (unit) and clauses 3,4.
constexpr const char* kValidCert =
    "9 1 0 1 2 0\n"
    "10 0 9 3 4 0\n";

kern::VerifyResult verify(const std::string& cert,
                          const std::string& cnf = kCnf) {
  std::istringstream cnf_in(cnf);
  std::istringstream cert_in(cert);
  return kern::verify_lrat(cnf_in, cert_in);
}

TEST(CertCorrupt, ValidBaselineVerifies) {
  const kern::VerifyResult r = verify(kValidCert);
  EXPECT_TRUE(r.verified) << r.error;
  EXPECT_EQ(r.additions, 2u);
  EXPECT_EQ(r.deletions, 0u);
}

// --- tampered hints ----------------------------------------------------

TEST(CertCorrupt, SatisfiedHintRejects) {
  // Hint 3 is {-1, 3}; under the assignment falsifying {1}, -1 is true.
  const kern::VerifyResult r = verify("9 1 0 1 3 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("satisfied"), std::string::npos) << r.error;
}

TEST(CertCorrupt, NonUnitHintRejects) {
  // Deriving the empty clause directly: hint 3 = {-1, 3} has two
  // unassigned literals under the empty assignment.
  const kern::VerifyResult r = verify("9 0 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("neither unit nor falsified"), std::string::npos)
      << r.error;
}

TEST(CertCorrupt, HintsEndingWithoutConflictReject) {
  const kern::VerifyResult r = verify("9 1 0 1 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("without reaching a conflict"), std::string::npos)
      << r.error;
}

TEST(CertCorrupt, UnknownHintRejects) {
  const kern::VerifyResult r = verify("9 1 0 1 42 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("unknown clause 42"), std::string::npos) << r.error;
}

TEST(CertCorrupt, NegativeRatHintRejects) {
  const kern::VerifyResult r = verify("9 1 0 -1 2 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("RAT"), std::string::npos) << r.error;
}

// --- reordered steps ---------------------------------------------------

TEST(CertCorrupt, ReorderedStepsReject) {
  // Swapping the two additions makes line 1 reference clause 9 before it
  // exists.
  const kern::VerifyResult r = verify("10 0 9 3 4 0\n9 1 0 1 2 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("unknown clause 9"), std::string::npos) << r.error;
}

TEST(CertCorrupt, NonIncreasingIdRejects) {
  const kern::VerifyResult r = verify("9 1 0 1 2 0\n5 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);
  EXPECT_NE(r.error.find("does not exceed"), std::string::npos) << r.error;
}

// --- deletions ---------------------------------------------------------

TEST(CertCorrupt, UseAfterDeleteRejects) {
  // A deletion the emitter would never write: clause 9 is still needed.
  const kern::VerifyResult r =
      verify("9 1 0 1 2 0\n9 d 9 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 3u);
  EXPECT_NE(r.error.find("deleted clause 9"), std::string::npos) << r.error;
}

TEST(CertCorrupt, DeleteUnknownClauseRejects) {
  const kern::VerifyResult r =
      verify("9 1 0 1 2 0\n9 d 42 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);
  EXPECT_NE(r.error.find("unknown clause 42"), std::string::npos) << r.error;
}

TEST(CertCorrupt, DoubleDeleteRejects) {
  const kern::VerifyResult r =
      verify("9 1 0 1 2 0\n9 d 5 0\n9 d 5 0\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 3u);
  EXPECT_NE(r.error.find("already deleted"), std::string::npos) << r.error;
}

TEST(CertCorrupt, DeletingUnusedClauseStillVerifies) {
  // Deleting a clause the rest of the proof never touches is legal; the
  // rejection cases above are about *misuse*, not deletion per se.
  const kern::VerifyResult r =
      verify("9 1 0 1 2 0\n9 d 5 6 0\n10 0 9 3 4 0\n");
  EXPECT_TRUE(r.verified) << r.error;
  EXPECT_EQ(r.deletions, 2u);
}

// --- truncation and malformed records ----------------------------------

TEST(CertCorrupt, TruncatedHintListRejects) {
  const kern::VerifyResult r = verify("9 1 0 1 2 0\n10 0 9 3");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(CertCorrupt, TruncatedLiteralListRejects) {
  const kern::VerifyResult r = verify("9 1");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(CertCorrupt, TrailingTokensReject) {
  const kern::VerifyResult r = verify("9 1 0 1 2 0 7\n10 0 9 3 4 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("trailing tokens"), std::string::npos) << r.error;
}

TEST(CertCorrupt, EmptyCertificateRejects) {
  const kern::VerifyResult r = verify("");
  EXPECT_FALSE(r.verified);
  EXPECT_NE(r.error.find("empty"), std::string::npos) << r.error;
}

// --- certificates that never reach the empty clause --------------------

TEST(CertCorrupt, MissingFinalEmptyClauseRejects) {
  const kern::VerifyResult r = verify("9 1 0 1 2 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("without deriving the empty clause"),
            std::string::npos)
      << r.error;
}

TEST(CertCorrupt, NonEmptyFinalClauseRejects) {
  // Both steps check, but the last derived clause is {1}, not {} — the
  // certificate proves nothing about unconditional unsatisfiability.
  const kern::VerifyResult r = verify("9 1 0 1 2 0\n10 1 0 9 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);
  EXPECT_NE(r.error.find("without deriving the empty clause"),
            std::string::npos)
      << r.error;
}

// --- binary (GRIT-style) variant ---------------------------------------

// The fixture's valid binary certificate (same proof, varint-encoded).
std::string valid_binary() {
  return std::string("\x61\x09\x02\x00\x01\x02\x00"
                     "\x61\x0a\x00\x09\x03\x04\x00",
                     14);
}

TEST(CertCorrupt, ValidBinaryVerifies) {
  const kern::VerifyResult r = verify(valid_binary());
  EXPECT_TRUE(r.verified) << r.error;
  EXPECT_EQ(r.additions, 2u);
}

TEST(CertCorrupt, TruncatedBinaryRejects) {
  std::string cert = valid_binary();
  cert.resize(cert.size() - 3);  // cut mid-record
  const kern::VerifyResult r = verify(cert);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);  // record index, not byte offset
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(CertCorrupt, BinaryUnknownTagRejects) {
  std::string cert = valid_binary();
  cert[7] = 'x';  // second record's tag byte
  const kern::VerifyResult r = verify(cert);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 2u);
  EXPECT_NE(r.error.find("unknown record tag"), std::string::npos)
      << r.error;
}

TEST(CertCorrupt, BinaryBadLiteralEncodingRejects) {
  std::string cert = valid_binary();
  cert[2] = '\x01';  // literal varint 1 => magnitude 0: invalid
  const kern::VerifyResult r = verify(cert);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("out of range"), std::string::npos) << r.error;
}

TEST(CertCorrupt, BinaryTamperedHintRejects) {
  std::string cert = valid_binary();
  cert[4] = '\x03';  // first record's hints become 3,2: hint 3 satisfied
  const kern::VerifyResult r = verify(cert);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.line, 1u);
  EXPECT_NE(r.error.find("satisfied"), std::string::npos) << r.error;
}

// --- hostile CNF input -------------------------------------------------

TEST(CertCorrupt, CnfLiteralOutOfRangeRejects) {
  const kern::VerifyResult r =
      verify(kValidCert, "p cnf 2 1\n1 5 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_NE(r.error.find("exceeds the declared variable count"),
            std::string::npos)
      << r.error;
}

TEST(CertCorrupt, CnfClauseCountMismatchRejects) {
  const kern::VerifyResult r = verify(kValidCert, "p cnf 2 3\n1 2 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_NE(r.error.find("declares 3 clauses"), std::string::npos)
      << r.error;
}

TEST(CertCorrupt, CnfMissingHeaderRejects) {
  const kern::VerifyResult r = verify(kValidCert, "1 2 0\n");
  EXPECT_FALSE(r.verified);
  EXPECT_NE(r.error.find("problem line"), std::string::npos) << r.error;
}

// --- pinned outcomes ---------------------------------------------------
//
// Exact {verified, error, line, additions, deletions} for inputs at the
// edges of the kernel's text and varint readers: whitespace variants,
// signs, trailing junk, int64 overflow, comments, NUL bytes, missing final
// newlines, and tokens or varints that straddle the reader's 64 KiB block
// boundary. The expectations are what the original getline/strtoll and
// istream-token readers produced, so any reader rewrite must reproduce
// them byte for byte.

using namespace std::string_literals;

struct Outcome {
  bool verified;
  std::string error;
  std::uint64_t line;
  std::uint64_t additions;
  std::uint64_t deletions;
};

struct Pinned {
  const char* name;
  std::string cnf;
  std::string cert;
  Outcome want;
};

std::string describe(const Outcome& o) {
  return testing::PrintToString(o.verified) + " " +
         testing::PrintToString(o.error) + " line=" + std::to_string(o.line) +
         " additions=" + std::to_string(o.additions) +
         " deletions=" + std::to_string(o.deletions);
}

void expect_pinned(const std::vector<Pinned>& table) {
  for (const Pinned& p : table) {
    SCOPED_TRACE(p.name);
    const kern::VerifyResult r = verify(p.cert, p.cnf);
    EXPECT_EQ(describe({r.verified, r.error, r.line, r.additions,
                        r.deletions}),
              describe(p.want));
  }
}

// The kernel reads each input in blocks of this many bytes.
constexpr std::size_t kBlock = std::size_t{64} << 10;

// A comment line that makes the following line start at byte `at`.
std::string comment_pad(std::size_t at) {
  return "c" + std::string(at - 2, ' ') + "\n";
}

const Outcome kOk{true, "", 2, 2, 0};

TEST(CertCorrupt, PinnedOutcomesTextCertificate) {
  const std::string pad = comment_pad(kBlock - 6);
  expect_pinned({
      {"crlf", kCnf, "9 1 0 1 2 0\r\n10 0 9 3 4 0\r\n", kOk},
      {"tabs", kCnf, "9\t1\t0\t1\t2\t0\n\t10\t0\t9\t3\t4\t0\n", kOk},
      {"vtab before a number", kCnf, "9 1 0\v1 2 0\n10 0 9 3 4 0\n", kOk},
      {"formfeed at end of line", kCnf, "9 1 0 1 2 0\f\n10 0 9 3 4 0\n",
       {false, "bad token '\f'", 1, 0, 0}},
      {"vtab-only line", kCnf, "\v\n9 1 0 1 2 0\n10 0 9 3 4 0\n",
       {false, "bad token '\v'", 1, 0, 0}},
      {"plus signs", kCnf, "9 +1 0 +1 +2 0\n+10 0 +9 3 4 0\n", kOk},
      {"lone plus", kCnf, "9 + 0\n", {false, "bad token '+ 0'", 1, 0, 0}},
      {"5x", kCnf, "9 1x 0 1 2 0\n10 0 9 3 4 0\n",
       {false, "bad token 'x 0 1 2 0'", 1, 0, 0}},
      {"0x10", kCnf, "9 1 0x10 1 2 0\n",
       {false, "bad token 'x10 1 2 0'", 1, 0, 0}},
      {"20 digits", kCnf, "9 1 0 1 2 0\n12345678901234567890 0 9 3 4 0\n",
       {false, "bad token '12345678901234567890 0 9 3 4 0'", 2, 1, 0}},
      {"below int64 min", kCnf, "9 1 0 -9223372036854775809 0\n",
       {false, "bad token '-9223372036854775809 0'", 1, 0, 0}},
      {"int64 min literal", kCnf, "9 -9223372036854775808 0 1 2 0\n",
       {false, "literal -9223372036854775808 out of range", 1, 0, 0}},
      {"int64 min id", kCnf, "-9223372036854775808 0 9 3 4 0\n",
       {false, "record must begin with a positive clause id", 1, 0, 0}},
      {"int64 max hint", kCnf, "9 1 0 9223372036854775807 1 2 0\n",
       {false, "hint references unknown clause 9223372036854775807", 1, 0,
        0}},
      {"comment lines", kCnf,
       "c leading\n9 1 0 1 2 0\nc 10 0 0\n \tc indented\n10 0 9 3 4 0\n",
       {true, "", 5, 2, 0}},
      {"c token mid-line", kCnf, "9 1 0 1 2 0 c tail\n",
       {false, "bad token 'c tail'", 1, 0, 0}},
      {"blank and whitespace-only lines", kCnf,
       "\n \t \r\n\r\n9 1 0 1 2 0\n\n10 0 9 3 4 0\n", {true, "", 6, 2, 0}},
      {"no final newline", kCnf, "9 1 0 1 2 0\n10 0 9 3 4 0", kOk},
      {"cr at end of input", kCnf, "9 1 0 1 2 0\n10 0 9 3 4 0\r", kOk},
      {"NUL ends the line", kCnf, "9 1 0 1 2 0\0 7 junk\n10 0 9 3 4 0\n"s,
       kOk},
      {"NUL mid-record", kCnf, "9 1\0 0 1 2 0\n"s,
       {false, "truncated record: missing literal terminator", 1, 0, 0}},
      {"deletion spacing", kCnf, "9 1 0 1 2 0\n  9  d 5 0\n10 0 9 3 4 0\n",
       {true, "", 3, 2, 1}},
      {"d glued to its ids", kCnf, "9 1 0 1 2 0\n9 d5 6 0\n10 0 9 3 4 0\n",
       {true, "", 3, 2, 2}},
      {"cr before d", kCnf, "9 1 0 1 2 0\n9\rd 5 0\n",
       {false, "bad token 'd 5 0'", 2, 1, 0}},
      {"deletion trailing token", kCnf, "9 d 5 0 7\n",
       {false, "trailing tokens after deletion record", 1, 0, 0}},
      {"negative deletion id", kCnf, "9 d -5 0\n",
       {false, "negative clause id in deletion record", 1, 0, 0}},
      {"record crossing a newline", kCnf, "9 1 0 1\n2 0\n10 0 9 3 4 0\n",
       {false, "truncated record: missing hint terminator", 1, 0, 0}},
      {"junk after the empty clause", kCnf, "9 1 0 1 2 0\n10 0 9 3 4 0\n%\n",
       kOk},
      {"comments only", kCnf, "c nothing here\n",
       {false, "certificate ended without deriving the empty clause", 1, 0,
        0}},
      {"record across the block boundary", kCnf,
       pad + "9 1 0 1 2 0\n10 0 9 3 4 0\n", {true, "", 3, 2, 0}},
      {"bad token across the block boundary", kCnf,
       pad + "9 1 0 1 2 0 xyz" + std::string(20, 'y') + "\n",
       {false, "bad token 'xyz" + std::string(20, 'y') + "'", 2, 0, 0}},
      {"record longer than a block", kCnf,
       "9 1 0 1 2" + std::string(kBlock, ' ') + "5 5 0\n10 0 9 3 4 0\n",
       kOk},
  });
}

TEST(CertCorrupt, PinnedOutcomesCnf) {
  const std::string body =
      "1 2 0\n1 -2 0\n-1 3 0\n-1 -3 0\n2 4 0\n-2 -4 0\n3 -4 0\n-3 4 0\n";
  const std::string h = "p cnf 4 8\n";
  expect_pinned({
      {"crlf",
       "p cnf 4 8\r\n1 2 0\r\n1 -2 0\r\n-1 3 0\r\n-1 -3 0\r\n2 4 0\r\n"
       "-2 -4 0\r\n3 -4 0\r\n-3 4 0\r\n",
       kValidCert, kOk},
      {"tabs, vtabs and formfeeds",
       "p\tcnf\v4\f8\n1\t2\v0\f1 -2 0\n-1 3 0\n-1 -3 0\n2 4 0\n-2 -4 0\n"
       "3 -4 0\n-3 4 0\n",
       kValidCert, kOk},
      {"plus signs", "p cnf +4 +8\n+1 +2 0\n1 -2 +0\n" + body.substr(13),
       kValidCert, kOk},
      {"5x", h + "1x 2 0\n" + body, kValidCert,
       {false, "CNF: bad token '1x'", 0, 0, 0}},
      {"0x10 in the header", "p cnf 0x10 8\n" + body, kValidCert,
       {false, "CNF: malformed problem line", 0, 0, 0}},
      {"0x10 as a literal", h + "0x10 0\n" + body, kValidCert,
       {false, "CNF: bad token '0x10'", 0, 0, 0}},
      {"20 digits as a literal", h + "12345678901234567890 0\n" + body,
       kValidCert,
       {false, "CNF: bad token '12345678901234567890'", 0, 0, 0}},
      {"20 digits in the header", "p cnf 12345678901234567890 8\n" + body,
       kValidCert, {false, "CNF: malformed problem line", 0, 0, 0}},
      {"int64 min literal", h + "-9223372036854775808 0\n" + body,
       kValidCert,
       {false,
        "CNF: literal -9223372036854775808 exceeds the declared variable "
        "count",
        0, 0, 0}},
      {"int64 min in the header", "p cnf -9223372036854775808 8\n" + body,
       kValidCert,
       {false, "CNF: variable or clause count out of range", 0, 0, 0}},
      {"negative clause count", "p cnf 4 -8\n" + body, kValidCert,
       {false, "CNF: variable or clause count out of range", 0, 0, 0}},
      {"comment lines", "c first\nc\np cnf 4 8\nc middle\n" + body + "c end",
       kValidCert, kOk},
      {"c token mid-line", h + "1 c 0 0 0\n2 0\n" + body.substr(6),
       kValidCert, kOk},
      {"blank and whitespace-only lines",
       "\n  \n" + h + "\t\n\r\n" + body + " \n", kValidCert, kOk},
      {"no final newline", h + body.substr(0, body.size() - 1), kValidCert,
       kOk},
      {"NUL inside a token", h + "1\0junk 2 0\0\n"s + body.substr(6),
       kValidCert, kOk},
      {"NUL token", h + "\0 1 2 0\n"s + body, kValidCert,
       {false, "CNF: bad token '\0'"s, 0, 0, 0}},
      {"NUL in the header", "p\0 cnf 4 8\n"s + body, kValidCert,
       {false, "CNF: expected a comment or problem line, got 'p\0'"s, 0, 0,
        0}},
      {"p  cnf spacing", "p  cnf   4  8\n" + body, kValidCert, kOk},
      {"header across lines", "p cnf\n4\n8\n" + body,
       kValidCert, kOk},
      {"pcnf", "pcnf 4 8\n" + body, kValidCert,
       {false, "CNF: expected a comment or problem line, got 'pcnf'", 0, 0,
        0}},
      {"p dnf", "p dnf 4 8\n" + body, kValidCert,
       {false, "CNF: malformed problem line", 0, 0, 0}},
      {"header trailing junk", "p cnf 4 8 junk\n" + body, kValidCert,
       {false, "CNF: bad token 'junk'", 0, 0, 0}},
      {"header 8x", "p cnf 4 8x\n" + body, kValidCert,
       {false, "CNF: bad token 'x'", 0, 0, 0}},
      {"header 4x", "p cnf 4x 8\n" + body, kValidCert,
       {false, "CNF: malformed problem line", 0, 0, 0}},
      {"header cut short", "p cnf 4", kValidCert,
       {false, "CNF: malformed problem line", 0, 0, 0}},
      {"empty", "", kValidCert, {false, "CNF: missing problem line", 0, 0, 0}},
      {"clause crossing a newline", h + "1\n2 0\n" + body.substr(6),
       kValidCert, kOk},
      {"percent trailer", h + body + "%\n0\n", kValidCert,
       {false, "CNF: bad token '%'", 0, 0, 0}},
      {"last clause unterminated", h + body + "1 2", kValidCert,
       {false, "CNF: last clause missing its terminating 0", 0, 0, 0}},
      {"header across the block boundary",
       comment_pad(kBlock - 8) + "p cnf 00000004 8\n" + body, kValidCert,
       kOk},
      {"bad token across the block boundary",
       h + comment_pad(kBlock - 3 - h.size()) + "12345x 0\n" + body,
       kValidCert, {false, "CNF: bad token '12345x'", 0, 0, 0}},
  });
}

// The fixture's binary certificate with the first record's hint list
// padded (hints after the conflict are ignored) so that the second record
// starts at byte `at`.
std::string binary_first_record(std::size_t at) {
  return "\x61\x09\x02\x00\x01\x02"s + std::string(at - 7, '\x05') + '\0';
}

TEST(CertCorrupt, PinnedOutcomesBinaryCertificate) {
  const std::string first = binary_first_record(kBlock - 2);
  const std::string max_id = "\x61"s + std::string(9, '\x80') + '\x01' +
                             "\x02\x00\x01\x02\x00"s;
  expect_pinned({
      {"id varint across the block boundary", kCnf,
       first + "\x61\xc8\x01\x00\x09\x03\x04\x00"s, kOk},
      {"deletion varint across the block boundary", kCnf,
       first + "\x64\xac\x02\x00"s,
       {false, "deletion references unknown clause 300", 2, 1, 0}},
      {"non-minimal hint varint across the block boundary", kCnf,
       binary_first_record(kBlock - 4) + "\x61\x0a\x00\x89\x80\x80\x00"s +
           "\x03\x04\x00"s,
       kOk},
      {"truncated at the block boundary", kCnf, first + "\x61\xc8"s,
       {false, "truncated record: unterminated varint", 2, 1, 0}},
      {"10-byte varint overflow", kCnf,
       "\x61"s + std::string(10, '\x80') + '\x01',
       {false, "varint overflows 64 bits", 1, 0, 0}},
      {"10-byte varint accepted", kCnf,
       max_id + "\x61\x0a\x00\x09\x03\x04\x00"s,
       {false,
        "addition id 10 does not exceed the previous id "
        "9223372036854775808",
        2, 1, 0}},
  });
}

}  // namespace
}  // namespace satproof
