#include "lsl/payload.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <vector>

namespace lsl::core {

namespace {

// splitmix64-style mix of (seed, word index): word w holds stream bytes
// [8w, 8w + 8), least significant byte first, so the content is random
// access per word.
std::uint64_t stream_word(std::uint64_t mix, std::uint64_t word_index) {
  std::uint64_t z = mix + 0x9e3779b97f4a7c15ull * (word_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Bytes [from, from + n) of a stream word, for a partial word at either
// end of a generate() call.
void emit_partial(std::uint8_t* out, std::uint64_t word, unsigned from,
                  std::size_t n) {
  word >>= 8 * from;
  for (std::size_t b = 0; b < n; ++b) {
    out[b] = static_cast<std::uint8_t>(word >> (8 * b));
  }
}

}  // namespace

void PayloadGenerator::generate(std::span<std::uint8_t> out) {
  std::uint8_t* p = out.data();
  std::size_t n = out.size();
  std::uint64_t word = position_ / 8;
  const auto head_off = static_cast<unsigned>(position_ % 8);
  position_ += n;

  if (head_off != 0 && n > 0) {
    const std::size_t take = std::min<std::size_t>(8 - head_off, n);
    emit_partial(p, stream_word(mix_, word++), head_off, take);
    p += take;
    n -= take;
  }
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t z = stream_word(mix_, word++);
    if constexpr (std::endian::native == std::endian::big) {
      z = __builtin_bswap64(z);
    }
    std::memcpy(p, &z, sizeof z);
  }
  if (n > 0) emit_partial(p, stream_word(mix_, word), 0, n);
}

bool PayloadVerifier::feed(std::span<const std::uint8_t> data) {
  // After a mismatch the hash still covers every byte fed: the sink
  // compares it against the sender's digest trailer. `expected` is left
  // uninitialized because generate() writes every byte memcmp reads.
  std::array<std::uint8_t, kTileBytes> expected;
  for (std::size_t off = 0; off < data.size(); off += kTileBytes) {
    const auto tile =
        data.subspan(off, std::min(kTileBytes, data.size() - off));
    hasher_.update(tile);
    if (check_content_ && ok_) {
      expect_.generate(std::span<std::uint8_t>(expected.data(), tile.size()));
      ok_ = std::memcmp(tile.data(), expected.data(), tile.size()) == 0;
    }
  }
  verified_ += data.size();
  return ok_;
}

md5::Digest PayloadVerifier::hash_copy_digest() const {
  md5::Md5 copy = hasher_;
  return copy.finalize();
}

md5::Digest stream_digest(std::uint64_t seed, std::uint64_t length) {
  PayloadGenerator gen(seed);
  md5::Md5 hash;
  std::vector<std::uint8_t> buf(64 * 1024);
  std::uint64_t remaining = length;
  while (remaining > 0) {
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(buf.size(), remaining));
    gen.generate(std::span<std::uint8_t>(buf.data(), take));
    hash.update(std::span<const std::uint8_t>(buf.data(), take));
    remaining -= take;
  }
  return hash.finalize();
}

}  // namespace lsl::core
