#include "src/cnf/dimacs.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/util/byte_source.hpp"
#include "src/util/text_scanner.hpp"

namespace satproof::dimacs {

namespace {

[[noreturn]] void fail(std::uint64_t line, const std::string& what) {
  throw std::runtime_error("dimacs: line " + std::to_string(line) + ": " +
                           what);
}

/// The one scan loop behind parse, parse_string and parse_file.
Formula parse_source(util::ByteSource& src) {
  Formula f;
  bool saw_header = false;
  std::int64_t declared_vars = 0;
  std::int64_t declared_clauses = 0;
  std::vector<Lit> current;
  util::LineScanner scanner(src);
  std::string_view line;

  const auto next_line = [&] {
    try {
      return scanner.next(line);
    } catch (const std::runtime_error&) {
      throw std::runtime_error("dimacs: stream read error");
    }
  };
  while (next_line()) {
    const std::uint64_t line_no = scanner.line_no();
    // Tolerate Windows line endings.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line[0] == 'c') continue;
    // SATLIB files end with a '%' line followed by a lone '0'; everything
    // after the marker is trailer, not clauses.
    if (line[0] == '%') break;
    const char* p = line.data();
    const char* const end = p + line.size();
    if (line[0] == 'p') {
      if (saw_header) fail(line_no, "duplicate header");
      // Any first word, then "cnf" and two integers; the rest of the line
      // is ignored.
      (void)util::scan_word(p, end);
      const bool well_formed =
          util::scan_word(p, end) == "cnf" &&
          util::scan_int(p, end, declared_vars) == util::IntToken::kOk &&
          util::scan_int(p, end, declared_clauses) == util::IntToken::kOk;
      if (!well_formed || declared_vars < 0 || declared_clauses < 0) {
        fail(line_no, "malformed header (expected 'p cnf <vars> <clauses>')");
      }
      if (declared_vars > std::int64_t{kMaxVar} + 1) {
        fail(line_no, "variable count out of range (max " +
                          std::to_string(std::int64_t{kMaxVar} + 1) + ")");
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) fail(line_no, "literals before 'p cnf' header");
    std::int64_t d = 0;
    util::IntToken token;
    while ((token = util::scan_int(p, end, d)) == util::IntToken::kOk) {
      if (d == 0) {
        f.add_clause(current);
        current.clear();
      } else {
        // The header bound keeps every accepted literal within kMaxVar.
        if (d > declared_vars || d < -declared_vars) {
          fail(line_no, "literal exceeds declared vars");
        }
        current.push_back(Lit::from_dimacs(d));
      }
    }
    // A token that is not an integer, or one too long for 64 bits.
    if (token == util::IntToken::kOverflow || p != end) {
      fail(line_no, "non-integer token");
    }
  }
  if (!current.empty()) {
    throw std::runtime_error("dimacs: unterminated final clause (missing 0)");
  }
  if (!saw_header) throw std::runtime_error("dimacs: missing 'p cnf' header");
  f.ensure_var(static_cast<Var>(declared_vars == 0 ? 0 : declared_vars - 1));
  if (static_cast<std::int64_t>(f.num_clauses()) != declared_clauses) {
    throw std::runtime_error(
        "dimacs: clause count mismatch: header declares " +
        std::to_string(declared_clauses) + ", file contains " +
        std::to_string(f.num_clauses()));
  }
  return f;
}

}  // namespace

Formula parse(std::istream& in) {
  util::StreamByteSource src(in);
  return parse_source(src);
}

Formula parse_string(const std::string& text) {
  util::MemoryByteSource src(
      std::vector<std::uint8_t>(text.begin(), text.end()));
  return parse_source(src);
}

Formula parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("dimacs: cannot open " + path);
  return parse(in);
}

void write(std::ostream& out, const Formula& f, const std::string& comment) {
  // One "c " line per line of the comment.
  for (std::size_t begin = 0; begin < comment.size();) {
    std::size_t nl = comment.find('\n', begin);
    if (nl == std::string::npos) nl = comment.size();
    out << "c " << std::string_view(comment).substr(begin, nl - begin)
        << '\n';
    begin = nl + 1;
  }
  out << "p cnf " << f.num_vars() << ' ' << f.num_clauses() << '\n';
  for (ClauseId id = 0; id < f.num_clauses(); ++id) {
    for (const Lit lit : f.clause(id)) out << lit.to_dimacs() << ' ';
    out << "0\n";
  }
}

void write_file(const std::string& path, const Formula& f,
                const std::string& comment) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("dimacs: cannot open " + path);
  write(out, f, comment);
  if (!out) throw std::runtime_error("dimacs: write error on " + path);
}

}  // namespace satproof::dimacs
