#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/byte_source.hpp"

namespace satproof::util {

/// Line reader for the DIMACS and DRUP text parsers.
///
/// Walks the windows of a ByteSource with plain pointers, so a line costs
/// a memchr and no allocation or stream object. Lines split on '\n'
/// exactly as std::getline splits them: the delimiter is dropped, a last
/// line without one is still returned, and an empty source yields no
/// lines. A '\r' before the '\n' stays in the line; the caller decides
/// what it means.
class LineScanner {
 public:
  /// Does not take ownership; `src` must outlive the scanner.
  explicit LineScanner(ByteSource& src) : src_(src) {}

  /// Stores the next line in `line` and returns true, or returns false at
  /// the end of the data. The view points into the source's window, or
  /// into an internal copy when the line straddles two windows; either
  /// way it stays valid until the next call.
  bool next(std::string_view& line);

  /// 1-based number of the line last returned (0 before the first).
  [[nodiscard]] std::uint64_t line_no() const { return line_no_; }

 private:
  /// Moves to the window after the current one; false at end of data.
  bool advance_window();

  ByteSource& src_;
  const char* cur_ = nullptr;  ///< next unread byte in the window
  const char* end_ = nullptr;  ///< end of the window
  std::uint64_t end_pos_ = 0;  ///< source position of end_
  std::uint64_t line_no_ = 0;
  std::string carry_;          ///< a line straddling windows
};

/// Outcome of scan_int.
enum class IntToken : std::uint8_t { kOk, kNoDigits, kOverflow };

/// Reads one integer token at `p` exactly as `std::istream >> std::int64_t`
/// does in the C locale: skips " \t\n\v\f\r", takes an optional sign, then
/// the longest run of decimal digits. kNoDigits when no digit follows
/// (the sign, if any, stays consumed); kOverflow when the value does not
/// fit, with the whole digit run consumed. `value` is set only on kOk.
IntToken scan_int(const char*& p, const char* end, std::int64_t& value);

/// Reads one whitespace-delimited word at `p` as `std::istream >>
/// std::string` does; empty when only whitespace remains.
std::string_view scan_word(const char*& p, const char* end);

}  // namespace satproof::util
