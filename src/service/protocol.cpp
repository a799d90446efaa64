#include "src/service/protocol.hpp"

#include <cstring>

namespace satproof::service {

void append_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void append_u64le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t read_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

std::vector<std::uint8_t> encode_submit_header(const SubmitHeader& h) {
  std::vector<std::uint8_t> out;
  out.reserve(18);
  out.push_back(h.backend);
  out.push_back(h.flags);
  append_u32le(out, h.timeout_ms);
  append_u32le(out, h.jobs);
  append_u64le(out, h.declared_bytes);
  return out;
}

bool decode_submit_header(std::span<const std::uint8_t> payload,
                          SubmitHeader& out) {
  if (payload.size() != 18) return false;
  out.backend = payload[0];
  out.flags = payload[1];
  out.timeout_ms = read_u32le(payload.data() + 2);
  out.jobs = read_u32le(payload.data() + 6);
  out.declared_bytes = read_u64le(payload.data() + 10);
  return true;
}

std::vector<std::uint8_t> encode_error(ErrorCode code,
                                       std::string_view message) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + message.size());
  out.push_back(static_cast<std::uint8_t>(code));
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

bool decode_error(std::span<const std::uint8_t> payload, ErrorCode& code,
                  std::string& message) {
  if (payload.empty()) return false;
  code = static_cast<ErrorCode>(payload[0]);
  message.assign(payload.begin() + 1, payload.end());
  return true;
}

std::vector<std::uint8_t> encode_result(JobStatus status, std::uint64_t job_id,
                                        std::string_view verdict,
                                        std::string_view json) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 8 + 4 + verdict.size() + json.size());
  out.push_back(static_cast<std::uint8_t>(status));
  append_u64le(out, job_id);
  append_u32le(out, static_cast<std::uint32_t>(verdict.size()));
  out.insert(out.end(), verdict.begin(), verdict.end());
  out.insert(out.end(), json.begin(), json.end());
  return out;
}

bool decode_result(std::span<const std::uint8_t> payload, JobStatus& status,
                   std::uint64_t& job_id, std::string& verdict,
                   std::string& json) {
  if (payload.size() < 1 + 8 + 4) return false;
  status = static_cast<JobStatus>(payload[0]);
  job_id = read_u64le(payload.data() + 1);
  const std::uint32_t vlen = read_u32le(payload.data() + 9);
  if (payload.size() < 13 + static_cast<std::size_t>(vlen)) return false;
  verdict.assign(payload.begin() + 13, payload.begin() + 13 + vlen);
  json.assign(payload.begin() + 13 + vlen, payload.end());
  return true;
}

std::vector<std::uint8_t> encode_result_cert(std::uint64_t job_id,
                                             bool binary_format,
                                             std::string_view cert) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + 1 + 4 + cert.size());
  append_u64le(out, job_id);
  out.push_back(binary_format ? 1 : 0);
  append_u32le(out, static_cast<std::uint32_t>(cert.size()));
  out.insert(out.end(), cert.begin(), cert.end());
  return out;
}

bool decode_result_cert(std::span<const std::uint8_t> payload,
                        std::uint64_t& job_id, bool& binary_format,
                        std::string& cert) {
  if (payload.size() < 8 + 1 + 4) return false;
  job_id = read_u64le(payload.data());
  if (payload[8] > 1) return false;
  binary_format = payload[8] == 1;
  const std::uint32_t clen = read_u32le(payload.data() + 9);
  if (payload.size() != 13 + static_cast<std::size_t>(clen)) return false;
  cert.assign(payload.begin() + 13, payload.end());
  return true;
}

bool write_frame(util::Socket& sock, FrameTag tag,
                 std::span<const std::uint8_t> payload) {
  std::uint8_t header[kFrameHeaderBytes];
  header[0] = static_cast<std::uint8_t>(tag);
  const auto len = static_cast<std::uint32_t>(payload.size());
  header[1] = static_cast<std::uint8_t>(len);
  header[2] = static_cast<std::uint8_t>(len >> 8);
  header[3] = static_cast<std::uint8_t>(len >> 16);
  header[4] = static_cast<std::uint8_t>(len >> 24);
  if (!sock.send_all(header, sizeof(header))) return false;
  if (!payload.empty() && !sock.send_all(payload.data(), payload.size())) {
    return false;
  }
  return true;
}

bool write_frame(util::Socket& sock, FrameTag tag, std::string_view payload) {
  return write_frame(
      sock, tag,
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(payload.data()),
          payload.size()));
}

bool write_frame(util::Socket& sock, FrameTag tag) {
  return write_frame(sock, tag, std::span<const std::uint8_t>());
}

ReadStatus read_frame(util::Socket& sock, Frame& out,
                      std::uint32_t max_payload) {
  std::uint8_t header[kFrameHeaderBytes];
  const std::size_t got = sock.recv_exact(header, sizeof(header));
  if (got == 0) return ReadStatus::kClosed;
  if (got < sizeof(header)) return ReadStatus::kTruncated;
  out.tag = static_cast<FrameTag>(header[0]);
  const std::uint32_t len = read_u32le(header + 1);
  if (len > max_payload) return ReadStatus::kOversized;
  out.payload.resize(len);
  if (len > 0 && sock.recv_exact(out.payload.data(), len) < len) {
    return ReadStatus::kTruncated;
  }
  return ReadStatus::kFrame;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  // Drop the consumed prefix before growing; amortized O(1) per byte.
  if (consumed_ > 0) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

FrameDecoder::Result FrameDecoder::next(Frame& out) {
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return Result::kNeedMore;
  const std::uint8_t* p = buf_.data() + consumed_;
  const std::uint32_t len = read_u32le(p + 1);
  if (len > max_payload_) return Result::kOversized;
  if (avail < kFrameHeaderBytes + len) return Result::kNeedMore;
  out.tag = static_cast<FrameTag>(p[0]);
  out.payload.assign(p + kFrameHeaderBytes, p + kFrameHeaderBytes + len);
  consumed_ += kFrameHeaderBytes + len;
  if (consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  }
  return Result::kFrame;
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed frame";
    case ErrorCode::kOversizedFrame: return "oversized frame";
    case ErrorCode::kUnknownTag: return "unknown tag";
    case ErrorCode::kProtocolViolation: return "protocol violation";
    case ErrorCode::kDraining: return "draining";
    case ErrorCode::kBadRequest: return "bad request";
  }
  return "unknown error code";
}

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kCheckFailed: return "check-failed";
    case JobStatus::kError: return "error";
    case JobStatus::kTimeout: return "timeout";
  }
  return "unknown status";
}

}  // namespace satproof::service
