#include "md5/md5.hpp"

#include <bit>
#include <cstring>

namespace lsl::md5 {
namespace {

// The four auxiliary functions of RFC 1321 section 3.4. Each step's
// critical path runs through b, the value the previous step produced, so
// every function is grouped to apply b last: F and I take two operations
// after b, H one, and G none beyond the AND, because its two halves are
// disjoint bit sets and may be added instead of ORed.
constexpr std::uint32_t F(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return z ^ (x & (y ^ z));
}
constexpr std::uint32_t H(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return x ^ (y ^ z);
}
constexpr std::uint32_t I(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return y ^ (x | ~z);
}

using AuxFn = std::uint32_t (*)(std::uint32_t, std::uint32_t, std::uint32_t);

// One of the 64 steps: a = b + ((a + Fn(b, c, d) + x + k) <<< s).
template <AuxFn Fn, int S>
inline void step(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d, std::uint32_t x, std::uint32_t k) {
  a = b + std::rotl(a + x + k + Fn(b, c, d), S);
}

// Round 2's step, with G(b, c, d) = (b & d) | (c & ~d) split into a sum.
template <int S>
inline void step_g(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                   std::uint32_t d, std::uint32_t x, std::uint32_t k) {
  a = b + std::rotl(a + x + k + (c & ~d) + (b & d), S);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof v);
}

}  // namespace

void Md5::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  // The RFC 1321 compression, fully unrolled: each step's message word,
  // shift and sine constant K[i] = floor(2^32 * |sin(i + 1)|) are literals,
  // and the a/b/c/d rotation is in the argument order, not in moves.
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  // Round 1.
  step<F, 7>(a, b, c, d, m[0], 0xd76aa478);
  step<F, 12>(d, a, b, c, m[1], 0xe8c7b756);
  step<F, 17>(c, d, a, b, m[2], 0x242070db);
  step<F, 22>(b, c, d, a, m[3], 0xc1bdceee);
  step<F, 7>(a, b, c, d, m[4], 0xf57c0faf);
  step<F, 12>(d, a, b, c, m[5], 0x4787c62a);
  step<F, 17>(c, d, a, b, m[6], 0xa8304613);
  step<F, 22>(b, c, d, a, m[7], 0xfd469501);
  step<F, 7>(a, b, c, d, m[8], 0x698098d8);
  step<F, 12>(d, a, b, c, m[9], 0x8b44f7af);
  step<F, 17>(c, d, a, b, m[10], 0xffff5bb1);
  step<F, 22>(b, c, d, a, m[11], 0x895cd7be);
  step<F, 7>(a, b, c, d, m[12], 0x6b901122);
  step<F, 12>(d, a, b, c, m[13], 0xfd987193);
  step<F, 17>(c, d, a, b, m[14], 0xa679438e);
  step<F, 22>(b, c, d, a, m[15], 0x49b40821);
  // Round 2.
  step_g<5>(a, b, c, d, m[1], 0xf61e2562);
  step_g<9>(d, a, b, c, m[6], 0xc040b340);
  step_g<14>(c, d, a, b, m[11], 0x265e5a51);
  step_g<20>(b, c, d, a, m[0], 0xe9b6c7aa);
  step_g<5>(a, b, c, d, m[5], 0xd62f105d);
  step_g<9>(d, a, b, c, m[10], 0x02441453);
  step_g<14>(c, d, a, b, m[15], 0xd8a1e681);
  step_g<20>(b, c, d, a, m[4], 0xe7d3fbc8);
  step_g<5>(a, b, c, d, m[9], 0x21e1cde6);
  step_g<9>(d, a, b, c, m[14], 0xc33707d6);
  step_g<14>(c, d, a, b, m[3], 0xf4d50d87);
  step_g<20>(b, c, d, a, m[8], 0x455a14ed);
  step_g<5>(a, b, c, d, m[13], 0xa9e3e905);
  step_g<9>(d, a, b, c, m[2], 0xfcefa3f8);
  step_g<14>(c, d, a, b, m[7], 0x676f02d9);
  step_g<20>(b, c, d, a, m[12], 0x8d2a4c8a);
  // Round 3.
  step<H, 4>(a, b, c, d, m[5], 0xfffa3942);
  step<H, 11>(d, a, b, c, m[8], 0x8771f681);
  step<H, 16>(c, d, a, b, m[11], 0x6d9d6122);
  step<H, 23>(b, c, d, a, m[14], 0xfde5380c);
  step<H, 4>(a, b, c, d, m[1], 0xa4beea44);
  step<H, 11>(d, a, b, c, m[4], 0x4bdecfa9);
  step<H, 16>(c, d, a, b, m[7], 0xf6bb4b60);
  step<H, 23>(b, c, d, a, m[10], 0xbebfbc70);
  step<H, 4>(a, b, c, d, m[13], 0x289b7ec6);
  step<H, 11>(d, a, b, c, m[0], 0xeaa127fa);
  step<H, 16>(c, d, a, b, m[3], 0xd4ef3085);
  step<H, 23>(b, c, d, a, m[6], 0x04881d05);
  step<H, 4>(a, b, c, d, m[9], 0xd9d4d039);
  step<H, 11>(d, a, b, c, m[12], 0xe6db99e5);
  step<H, 16>(c, d, a, b, m[15], 0x1fa27cf8);
  step<H, 23>(b, c, d, a, m[2], 0xc4ac5665);
  // Round 4.
  step<I, 6>(a, b, c, d, m[0], 0xf4292244);
  step<I, 10>(d, a, b, c, m[7], 0x432aff97);
  step<I, 15>(c, d, a, b, m[14], 0xab9423a7);
  step<I, 21>(b, c, d, a, m[5], 0xfc93a039);
  step<I, 6>(a, b, c, d, m[12], 0x655b59c3);
  step<I, 10>(d, a, b, c, m[3], 0x8f0ccc92);
  step<I, 15>(c, d, a, b, m[10], 0xffeff47d);
  step<I, 21>(b, c, d, a, m[1], 0x85845dd1);
  step<I, 6>(a, b, c, d, m[8], 0x6fa87e4f);
  step<I, 10>(d, a, b, c, m[15], 0xfe2ce6e0);
  step<I, 15>(c, d, a, b, m[6], 0xa3014314);
  step<I, 21>(b, c, d, a, m[13], 0x4e0811a1);
  step<I, 6>(a, b, c, d, m[4], 0xf7537e82);
  step<I, 10>(d, a, b, c, m[11], 0xbd3af235);
  step<I, 15>(c, d, a, b, m[2], 0x2ad7d2bb);
  step<I, 21>(b, c, d, a, m[9], 0xeb86d391);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(n, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == buffer_.size()) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (n >= 64) {
    process_block(p);
    p += 64;
    n -= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffer_len_ = n;
  }
}

void Md5::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest Md5::finalize() {
  const std::uint64_t bit_len = total_len_ * 8;

  // Append 0x80 then zero-pad to 56 mod 64, then the 64-bit little-endian
  // bit length.
  static constexpr std::uint8_t kPad[64] = {0x80};
  const std::size_t rem = buffer_len_;
  const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  update(std::span<const std::uint8_t>(kPad, pad_len));

  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  update(std::span<const std::uint8_t>(len_bytes, 8));

  Digest d;
  for (int i = 0; i < 4; ++i) store_le32(d.bytes.data() + 4 * i, state_[i]);
  return d;
}

std::string Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 15]);
  }
  return out;
}

Digest compute(std::span<const std::uint8_t> data) {
  Md5 h;
  h.update(data);
  return h.finalize();
}

Digest compute(std::string_view data) {
  Md5 h;
  h.update(data);
  return h.finalize();
}

}  // namespace lsl::md5
