#include "src/util/text_scanner.hpp"

#include <cstring>
#include <limits>

namespace satproof::util {

namespace {

/// The C locale's isspace: ' ', '\t', '\n', '\v', '\f', '\r'.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

bool LineScanner::advance_window() {
  const ByteSource::Window w = src_.window(end_pos_);
  if (w.begin == w.end) {
    cur_ = end_ = nullptr;
    return false;
  }
  cur_ = reinterpret_cast<const char*>(w.begin);
  end_ = cur_ + w.size();
  end_pos_ += w.size();
  return true;
}

bool LineScanner::next(std::string_view& line) {
  if (cur_ == end_ && !advance_window()) return false;

  const auto find_newline = [this] {
    return static_cast<const char*>(
        std::memchr(cur_, '\n', static_cast<std::size_t>(end_ - cur_)));
  };
  const char* nl = find_newline();
  if (nl != nullptr) {
    line = {cur_, static_cast<std::size_t>(nl - cur_)};
    cur_ = nl + 1;
  } else {
    carry_.assign(cur_, end_);
    while (advance_window()) {
      nl = find_newline();
      if (nl != nullptr) {
        carry_.append(cur_, nl);
        cur_ = nl + 1;
        break;
      }
      carry_.append(cur_, end_);
    }
    line = carry_;
  }
  ++line_no_;
  return true;
}

IntToken scan_int(const char*& p, const char* end, std::int64_t& value) {
  while (p != end && is_space(*p)) ++p;
  bool negative = false;
  if (p != end && (*p == '+' || *p == '-')) {
    negative = *p == '-';
    ++p;
  }
  if (p == end || !is_digit(*p)) return IntToken::kNoDigits;
  // Leading zeros add nothing; up to 19 further digits cannot wrap the
  // 64-bit accumulator, so the range check waits until the run ends.
  while (p != end && *p == '0') ++p;
  const char* const significant = p;
  std::uint64_t magnitude = 0;
  while (p != end && is_digit(*p)) {
    magnitude = magnitude * 10 + static_cast<std::uint64_t>(*p - '0');
    ++p;
  }
  // -2^63 is representable, +2^63 is not.
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
      (negative ? 1 : 0);
  if (p - significant > 19 || magnitude > limit) return IntToken::kOverflow;
  value = negative ? static_cast<std::int64_t>(0 - magnitude)
                   : static_cast<std::int64_t>(magnitude);
  return IntToken::kOk;
}

std::string_view scan_word(const char*& p, const char* end) {
  while (p != end && is_space(*p)) ++p;
  const char* begin = p;
  while (p != end && !is_space(*p)) ++p;
  return {begin, static_cast<std::size_t>(p - begin)};
}

}  // namespace satproof::util
