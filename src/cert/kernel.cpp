#include "src/cert/kernel.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace satproof::kern {

namespace {

// Rejection control flow: any check failure throws, verify_lrat() catches.
// State is discarded wholesale afterwards, so no unwinding bookkeeping.
struct Reject {
  std::string msg;
  std::uint64_t line;
};

[[noreturn]] void reject(std::uint64_t line, std::string msg) {
  throw Reject{std::move(msg), line};
}

// Bounds a hostile CNF header (the assignment array is sized from it).
constexpr std::int64_t kMaxVars = std::int64_t{1} << 28;

// ---- integers ----

bool is_digit(int c) { return c >= '0' && c <= '9'; }

// isspace() in the C locale: ' ', '\t', '\n', '\v', '\f', '\r'.
bool is_space(int c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Appends one digit to a magnitude; false once it exceeds 2^63 - 1
// (2^63 when negative). 922337203685477580 is (2^63 - 1) / 10.
bool push_digit(std::uint64_t& v, int c, bool neg) {
  const auto d = static_cast<std::uint64_t>(c - '0');
  constexpr std::uint64_t kCut = 922337203685477580;
  if (v >= kCut && (v > kCut || d > (neg ? 8u : 7u))) return false;
  v = v * 10 + d;
  return true;
}

std::int64_t signed_value(std::uint64_t v, bool neg) {
  return static_cast<std::int64_t>(neg ? 0 - v : v);
}

// strtoll's number rule: an optional '+' or '-', then decimal digits up to
// the first non-digit (which must exist: a NUL or any other byte). Returns
// the end of the digits, or nullptr when there are none or the value
// leaves int64.
const char* to_int(const char* p, std::int64_t& out) {
  const bool neg = *p == '-';
  if (neg || *p == '+') ++p;
  if (!is_digit(*p)) return nullptr;
  std::uint64_t v = 0;
  for (; is_digit(*p); ++p) {
    if (!push_digit(v, *p, neg)) return nullptr;
  }
  out = signed_value(v, neg);
  return p;
}

// ---- buffered input ----

// Reads one istream in fixed blocks. It holds one block at a time, plus a
// copy of the current line or token when that straddles two blocks, so
// its memory does not grow with the input size.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(&in), buf_(new char[kBlock]) {}

  int peek() {
    return pos_ < end_ || fill() ? static_cast<unsigned char>(buf_[pos_]) : -1;
  }
  int get() {
    return pos_ < end_ || fill() ? static_cast<unsigned char>(buf_[pos_++])
                                 : -1;
  }

  // Skips whitespace; returns the next byte, or -1 at end of input.
  int skip_space() {
    int c = peek();
    for (; is_space(c); c = peek()) ++pos_;
    return c;
  }

  // Consumes bytes up to (not including) the stop byte that `find(b, e)`
  // locates in [b, e) (returning e when there is none), or to end of
  // input. The view is valid until the next read, and the byte just past
  // it is readable: the stop byte, or the NUL ending the spill copy.
  template <typename Find>
  std::string_view take(Find find) {
    char* const b = buf_.get();
    const std::size_t start = pos_;
    pos_ = static_cast<std::size_t>(find(b + pos_, b + end_) - b);
    if (pos_ < end_) return {b + start, pos_ - start};
    spill_.assign(b + start, end_ - start);
    while (fill()) {
      pos_ = static_cast<std::size_t>(find(b, b + end_) - b);
      spill_.append(b, pos_);
      if (pos_ < end_) break;
    }
    return spill_;
  }

  // The next line without its '\n', NUL-terminated (so a NUL byte inside
  // the line ends it early, as c_str() on a getline buffer did); nullptr
  // at end of input. Valid until the next read.
  const char* line() {
    if (peek() < 0) return nullptr;
    const char* s = take([](const char* b, const char* e) {
                      const void* nl = std::memchr(b, '\n', e - b);
                      return nl != nullptr ? static_cast<const char*>(nl) : e;
                    }).data();
    if (pos_ < end_) buf_[pos_++] = '\0';  // terminate in place
    return s;
  }

  // The next whitespace-delimited token (the istream >> std::string rule);
  // empty at end of input.
  std::string_view token() {
    if (skip_space() < 0) return {};
    return take([](const char* b, const char* e) {
      return std::find_if(b, e, [](char c) { return is_space(c); });
    });
  }

  // istream >> int64: whitespace, sign, digits; false on no digits or
  // overflow. Stops at the first non-digit without consuming it.
  bool integer(std::int64_t& out) {
    int c = skip_space();
    const bool neg = c == '-';
    if (neg || c == '+') {
      ++pos_;
      c = peek();
    }
    if (!is_digit(c)) return false;
    std::uint64_t v = 0;
    while (is_digit(c)) {
      if (!push_digit(v, c, neg)) return false;
      ++pos_;
      c = peek();
    }
    out = signed_value(v, neg);
    return true;
  }

 private:
  static constexpr std::size_t kBlock = std::size_t{64} << 10;

  bool fill() {
    in_->read(buf_.get(), kBlock);
    end_ = static_cast<std::size_t>(in_->gcount());
    pos_ = 0;
    return end_ > 0;
  }

  std::istream* in_;
  std::unique_ptr<char[]> buf_;
  std::size_t pos_ = 0;  // next unread byte of buf_
  std::size_t end_ = 0;  // bytes of buf_ holding input
  std::string spill_;    // a line or token that straddles blocks
};

// strtoll over a whole token: the token must be a number up to its end or
// up to a NUL byte (where c_str() would have ended it).
bool token_int(std::string_view t, std::int64_t& out) {
  const char* q = to_int(t.data(), out);
  return q != nullptr && (q == t.data() + t.size() || *q == '\0');
}

// The clause store: ids_, alive_ and off_ run in parallel by clause index,
// and clause i's literals are pool_[off_[i], off_[i + 1]) (off_ has one
// more entry than ids_; literals past off_.back() belong to the clause
// being read). IDs are strictly increasing, so lookup is a binary search,
// and when IDs are dense (as emitters write them) index id - 1 holds id.
// Originals occupy IDs 1..num_clauses, LRAT convention. A deleted clause
// is only marked dead: its literals stay in the pool, which therefore
// costs 4 bytes per literal of the CNF plus the certificate.
class Kernel {
 public:
  explicit Kernel(std::int64_t num_vars) : num_vars_(num_vars) {}

  // Appends a literal to the clause being read.
  void push(std::int32_t lit) { pool_.push_back(lit); }
  [[nodiscard]] bool pending() const { return pool_.size() > off_.back(); }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  // Stores the clause being read as the next original clause.
  void add_original() { store(ids_.size() + 1); }

  // Ends the CNF: sizes the assignment; additions may follow.
  void start() {
    val_.assign(static_cast<std::size_t>(num_vars_) + 1, 0);
    last_id_ = ids_.size();
  }

  // One addition step for the clause being read; returns true when it is
  // the empty clause (the certificate is complete).
  bool add(std::uint64_t id, const std::vector<std::uint64_t>& hints,
           std::uint64_t line) {
    if (id <= last_id_) {
      reject(line, "addition id " + std::to_string(id) +
                       " does not exceed the previous id " +
                       std::to_string(last_id_));
    }
    // Negate the clause. A variable hit in both phases makes the clause a
    // tautology — trivially derivable, accepted without consulting hints.
    const std::size_t begin = off_.back();
    bool conflict = false;
    for (std::size_t i = begin; i < pool_.size(); ++i) {
      const std::int32_t lit = pool_[i];
      check_range(lit, line);
      const std::int8_t want = lit > 0 ? -1 : 1;
      std::int8_t& v = val_[static_cast<std::size_t>(lit > 0 ? lit : -lit)];
      if (v == 0) {
        v = want;
        trail_.push_back(lit);
      } else if (v != want) {
        conflict = true;
        break;
      }
    }
    for (std::size_t h = 0; !conflict && h < hints.size(); ++h) {
      const std::size_t idx = find(hints[h], line, "hint");
      std::int32_t unit = 0;
      bool satisfied = false;
      int unassigned = 0;
      for (std::size_t i = off_[idx]; i < off_[idx + 1]; ++i) {
        const std::int32_t lit = pool_[i];
        const std::int8_t v = value(lit);
        if (v > 0) {
          satisfied = true;
          break;
        }
        if (v == 0) {
          unit = lit;
          if (++unassigned > 1) break;
        }
      }
      if (satisfied) {
        reject(line, "hint " + std::to_string(hints[h]) +
                         " is satisfied under the accumulated assignment");
      }
      if (unassigned == 0) {
        conflict = true;  // falsified: the step is justified
        break;
      }
      if (unassigned > 1) {
        reject(line, "hint " + std::to_string(hints[h]) +
                         " is neither unit nor falsified");
      }
      val_[static_cast<std::size_t>(unit > 0 ? unit : -unit)] =
          unit > 0 ? 1 : -1;
      trail_.push_back(unit);
    }
    if (!conflict) {
      reject(line, "hints ended without reaching a conflict");
    }
    for (const std::int32_t lit : trail_) {
      val_[static_cast<std::size_t>(lit > 0 ? lit : -lit)] = 0;
    }
    trail_.clear();
    const bool empty = pool_.size() == begin;
    store(id);
    last_id_ = id;
    return empty;
  }

  void del(const std::vector<std::uint64_t>& ids, std::uint64_t line) {
    for (const std::uint64_t id : ids) {
      const std::size_t idx = index_of(id, line, "deletion");
      if (alive_[idx] == 0) {
        reject(line, "deletion of clause " + std::to_string(id) +
                         ", which was already deleted");
      }
      alive_[idx] = 0;
    }
  }

 private:
  void store(std::uint64_t id) {
    ids_.push_back(id);
    alive_.push_back(1);
    off_.push_back(pool_.size());
  }

  void check_range(std::int32_t lit, std::uint64_t line) const {
    const std::int64_t mag = lit > 0 ? lit : -static_cast<std::int64_t>(lit);
    if (mag == 0 || mag > num_vars_) {
      reject(line, "literal " + std::to_string(lit) +
                       " is outside the CNF variable range");
    }
  }

  [[nodiscard]] std::int8_t value(std::int32_t lit) const {
    const std::int8_t v = val_[static_cast<std::size_t>(lit > 0 ? lit : -lit)];
    return lit > 0 ? v : static_cast<std::int8_t>(-v);
  }

  std::size_t index_of(std::uint64_t id, std::uint64_t line,
                       const char* what) const {
    if (id - 1 < ids_.size() && ids_[id - 1] == id) return id - 1;
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) {
      reject(line, std::string(what) + " references unknown clause " +
                       std::to_string(id));
    }
    return static_cast<std::size_t>(it - ids_.begin());
  }

  std::size_t find(std::uint64_t id, std::uint64_t line,
                   const char* what) const {
    const std::size_t idx = index_of(id, line, what);
    if (alive_[idx] == 0) {
      reject(line, std::string(what) + " references deleted clause " +
                       std::to_string(id));
    }
    return idx;
  }

  std::int64_t num_vars_;
  std::vector<std::uint64_t> ids_;  // strictly increasing
  std::vector<char> alive_;
  std::vector<std::size_t> off_{0};
  std::vector<std::int32_t> pool_;
  std::vector<std::int8_t> val_;  // by var: 0 unassigned, +1 true, -1 false
  std::vector<std::int32_t> trail_;
  std::uint64_t last_id_ = 0;
};

Kernel parse_cnf(std::istream& is) {
  Reader in(is);
  std::int64_t num_vars = 0;
  std::int64_t declared = -1;
  for (std::string_view tok = in.token(); !tok.empty(); tok = in.token()) {
    if (tok[0] == 'c') {
      (void)in.line();  // the rest of the comment line
      continue;
    }
    if (tok == "p") {
      if (in.token() != "cnf" || !in.integer(num_vars) ||
          !in.integer(declared)) {
        reject(0, "CNF: malformed problem line");
      }
      if (num_vars < 0 || num_vars > kMaxVars || declared < 0) {
        reject(0, "CNF: variable or clause count out of range");
      }
      break;
    }
    reject(0, "CNF: expected a comment or problem line, got '" +
                  std::string(tok) + "'");
  }
  if (declared < 0) reject(0, "CNF: missing problem line");
  Kernel k(num_vars);
  for (std::string_view tok = in.token(); !tok.empty(); tok = in.token()) {
    if (tok[0] == 'c') {
      (void)in.line();  // the rest of the comment line
      continue;
    }
    std::int64_t lit = 0;
    if (!token_int(tok, lit)) {
      reject(0, "CNF: bad token '" + std::string(tok) + "'");
    }
    if (lit == 0) {
      k.add_original();
      continue;
    }
    if (lit > num_vars || lit < -num_vars) {
      reject(0, "CNF: literal " + std::to_string(lit) +
                    " exceeds the declared variable count");
    }
    k.push(static_cast<std::int32_t>(lit));
  }
  if (k.pending()) reject(0, "CNF: last clause missing its terminating 0");
  if (static_cast<std::int64_t>(k.size()) != declared) {
    reject(0, "CNF: header declares " + std::to_string(declared) +
                  " clauses but the file has " + std::to_string(k.size()));
  }
  k.start();
  return k;
}

// ---- text certificate driver ----

struct LineScan {
  const char* p;
  std::uint64_t line;

  // Next integer on the line; false at end of line, Reject on junk. Like
  // strtoll, a number may also be preceded by '\v' or '\f'.
  bool next(std::int64_t& out) {
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
    if (*p == '\0') return false;
    const char* q = p;
    while (is_space(*q)) ++q;
    q = to_int(q, out);
    if (q == nullptr) reject(line, std::string("bad token '") + p + "'");
    p = q;
    return true;
  }

  std::int64_t expect(const char* what) {
    std::int64_t v = 0;
    if (!next(v)) {
      reject(line, std::string("truncated record: missing ") + what);
    }
    return v;
  }
};

void run_text(Reader& cert, Kernel& k, VerifyResult& r) {
  std::uint64_t lineno = 0;
  std::vector<std::uint64_t> ids;
  const char* text = nullptr;
  while (!r.verified && (text = cert.line()) != nullptr) {
    ++lineno;
    LineScan s{text, lineno};
    while (*s.p == ' ' || *s.p == '\t' || *s.p == '\r') ++s.p;
    if (*s.p == '\0' || *s.p == 'c') continue;
    std::int64_t id = 0;
    if (!s.next(id) || id <= 0) reject(lineno, "record must begin with a positive clause id");
    while (*s.p == ' ' || *s.p == '\t') ++s.p;
    if (*s.p == 'd') {
      ++s.p;
      ids.clear();
      for (std::int64_t v = s.expect("deletion terminator"); v != 0;
           v = s.expect("deletion terminator")) {
        if (v < 0) reject(lineno, "negative clause id in deletion record");
        ids.push_back(static_cast<std::uint64_t>(v));
      }
      std::int64_t extra = 0;
      if (s.next(extra)) reject(lineno, "trailing tokens after deletion record");
      k.del(ids, lineno);
      r.deletions += ids.size();
      continue;
    }
    for (std::int64_t v = s.expect("literal terminator"); v != 0;
         v = s.expect("literal terminator")) {
      if (v > INT32_MAX || v < INT32_MIN) {
        reject(lineno, "literal " + std::to_string(v) + " out of range");
      }
      k.push(static_cast<std::int32_t>(v));
    }
    ids.clear();  // hint list
    for (std::int64_t v = s.expect("hint terminator"); v != 0;
         v = s.expect("hint terminator")) {
      if (v < 0) {
        reject(lineno, "negative (RAT) hints are not supported");
      }
      ids.push_back(static_cast<std::uint64_t>(v));
    }
    std::int64_t extra = 0;
    if (s.next(extra)) reject(lineno, "trailing tokens after addition record");
    r.verified = k.add(static_cast<std::uint64_t>(id), ids, lineno);
    ++r.additions;
  }
  r.line = lineno;
}

// ---- binary (GRIT-style) certificate driver ----

std::uint64_t get_varint(Reader& in, std::uint64_t rec) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const int c = in.get();
    if (c < 0) reject(rec, "truncated record: unterminated varint");
    v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) return v;
  }
  reject(rec, "varint overflows 64 bits");
}

void run_binary(Reader& cert, Kernel& k, VerifyResult& r) {
  std::uint64_t rec = 0;
  std::vector<std::uint64_t> ids;
  int tag = 0;
  while (!r.verified && (tag = cert.get()) >= 0) {
    ++rec;
    if (tag == 'd') {
      ids.clear();
      for (std::uint64_t v = get_varint(cert, rec); v != 0;
           v = get_varint(cert, rec)) {
        ids.push_back(v);
      }
      k.del(ids, rec);
      r.deletions += ids.size();
      continue;
    }
    if (tag != 'a') {
      reject(rec, "unknown record tag byte " + std::to_string(tag));
    }
    const std::uint64_t id = get_varint(cert, rec);
    for (std::uint64_t v = get_varint(cert, rec); v != 0;
         v = get_varint(cert, rec)) {
      const std::uint64_t mag = v >> 1;
      if (mag == 0 || mag > INT32_MAX) {
        reject(rec, "encoded literal " + std::to_string(v) + " out of range");
      }
      const auto m = static_cast<std::int32_t>(mag);
      k.push((v & 1) != 0 ? -m : m);
    }
    ids.clear();  // hint list
    for (std::uint64_t v = get_varint(cert, rec); v != 0;
         v = get_varint(cert, rec)) {
      ids.push_back(v);
    }
    r.verified = k.add(id, ids, rec);
    ++r.additions;
  }
  r.line = rec;
}

}  // namespace

VerifyResult verify_lrat(std::istream& cnf, std::istream& cert) {
  VerifyResult r;
  try {
    Kernel k = parse_cnf(cnf);
    Reader in(cert);
    const int first = in.peek();
    if (first < 0) reject(0, "certificate is empty");
    if (first == 'a' || first == 'd') {
      run_binary(in, k, r);
    } else {
      run_text(in, k, r);
    }
    if (!r.verified) {
      reject(r.line, "certificate ended without deriving the empty clause");
    }
  } catch (const Reject& rej) {
    r.verified = false;
    r.error = rej.msg;
    r.line = rej.line;
  }
  return r;
}

}  // namespace satproof::kern
