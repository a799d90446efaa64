#include "src/util/arena.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace satproof::util {

std::size_t ClauseArena::grow(std::uint32_t slots) {
  if (chunks_.size() >= kMaxChunks) {
    throw std::runtime_error("clause arena: chunk table exhausted");
  }
  // Geometric growth: small arenas (tiny traces) stay small; big replays converge to full 2^16-slot chunks.
  const std::uint32_t capacity = std::max(next_chunk_slots_, slots);
  next_chunk_slots_ = std::min(next_chunk_slots_ * 2, kMaxChunkSlots);
  Chunk chunk;
  chunk.data = std::make_unique<Lit[]>(capacity);
  chunk.capacity = capacity;
  chunks_.push_back(std::move(chunk));
  return chunks_.size() - 1;
}

ClauseArena::Ref ClauseArena::bump(std::uint32_t slots) {
  if (slots > kMaxChunkSlots) {
    // A clause longer than a whole chunk gets a dedicated exact-size
    // chunk. Refs can only address the first 2^16 slots of a chunk, but
    // the block *starts* at offset 0, and block() only needs the start.
    if (chunks_.size() >= kMaxChunks) {
      throw std::runtime_error("clause arena: chunk table exhausted");
    }
    Chunk chunk;
    chunk.data = std::make_unique<Lit[]>(slots);
    chunk.capacity = slots;
    chunk.used = slots;
    chunks_.push_back(std::move(chunk));
    return static_cast<Ref>((chunks_.size() - 1) << 16);
  }

  // Advance past chunks that cannot fit this block. After a reset() the
  // walk revisits retained chunks in order; an untouched chunk is claimed
  // for the headered layout (its previous tier no longer matters once no
  // ref points into it), a binary-tier chunk in use is skipped, and an
  // oversized (exact-size) chunk only exposes its first 2^16 slots when
  // reused as bump space.
  while (active_ < chunks_.size()) {
    Chunk& c = chunks_[active_];
    if (c.used == 0) c.binary = false;
    const std::uint32_t usable = std::min(c.capacity, kMaxChunkSlots);
    if (!c.binary && c.used + slots <= usable) break;
    ++active_;
  }

  if (active_ == chunks_.size()) grow(slots);

  Chunk& chunk = chunks_[active_];
  const auto offset = chunk.used;
  chunk.used += slots;
  return static_cast<Ref>((active_ << 16) | offset);
}

ClauseArena::Ref ClauseArena::bump_binary() {
  // Mirror image of bump()'s walk, claiming untouched chunks for the
  // binary tier and skipping headered chunks in use. The two walks share
  // the chunk table (refs address either kind uniformly) but never share
  // a chunk that holds data.
  while (binary_active_ < chunks_.size()) {
    Chunk& c = chunks_[binary_active_];
    if (c.used == 0) c.binary = true;
    const std::uint32_t usable = std::min(c.capacity, kMaxChunkSlots);
    if (c.binary && c.used + 2 <= usable) break;
    ++binary_active_;
  }

  if (binary_active_ == chunks_.size()) {
    chunks_[grow(2)].binary = true;
  }

  Chunk& chunk = chunks_[binary_active_];
  const auto offset = chunk.used;
  chunk.used += 2;
  return static_cast<Ref>((binary_active_ << 16) | offset);
}

void ClauseArena::reset() {
  for (Chunk& c : chunks_) c.used = 0;
  active_ = 0;
  binary_active_ = 0;
  free_lists_.clear();
  tracker_.reset();
  allocated_ = 0;
  recycled_ = 0;
  live_clauses_ = 0;
  // next_chunk_slots_ keeps its growth state: a worker that has already
  // checked a large trace should not re-grow from tiny chunks.
}

ClauseArena::Ref ClauseArena::put(std::span<const Lit> lits) {
  const auto len = static_cast<std::uint32_t>(lits.size());
  const std::size_t bytes = block_bytes(len);

  Ref ref = kNullRef;
  if (len < free_lists_.size() && !free_lists_[len].empty()) {
    ref = free_lists_[len].back();
    free_lists_[len].pop_back();
    recycled_ += bytes;
  } else if (len == 2 && binary_tier_) {
    ref = bump_binary();
  } else {
    ref = bump(len + 1);
  }

  // The reused block's chunk, not the current tier setting, decides the
  // layout to write: a recycled ref keeps the layout it was born with.
  const Chunk& c = chunks_[ref >> 16];
  Lit* dst = c.data.get() + (ref & 0xffffu);
  if (c.binary) {
    dst[0] = lits[0];
    dst[1] = lits[1];
  } else {
    dst[0] = Lit::from_code(len);
    if (len > 0) {
      std::memcpy(dst + 1, lits.data(), len * sizeof(Lit));
    }
  }
  allocated_ += bytes;
  tracker_.add(bytes);
  ++live_clauses_;
  return ref;
}

void ClauseArena::release(Ref ref) {
  const Chunk& c = chunks_[ref >> 16];
  const std::uint32_t len =
      c.binary ? 2 : (c.data.get() + (ref & 0xffffu))[0].code();
  if (len >= free_lists_.size()) {
    free_lists_.resize(len + 1);
  }
  free_lists_[len].push_back(ref);
  tracker_.remove(block_bytes(len));
  --live_clauses_;
}

}  // namespace satproof::util
