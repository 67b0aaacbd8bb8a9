// MD5 correctness: the RFC 1321 test suite, incremental/one-shot
// equivalence under arbitrary chunkings, and reuse semantics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "md5/md5.hpp"
#include "util/rng.hpp"

namespace lsl::md5 {
namespace {

TEST(Md5, Rfc1321TestSuite) {
  EXPECT_EQ(compute("").hex(), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(compute("a").hex(), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(compute("abc").hex(), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(compute("message digest").hex(),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(compute("abcdefghijklmnopqrstuvwxyz").hex(),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      compute("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")
          .hex(),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(compute("1234567890123456789012345678901234567890123456789012345"
                    "6789012345678901234567890")
                .hex(),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, BlockBoundaryLengths) {
  // Lengths straddling the 64-byte block and the 56-byte padding cutoff.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Md5 h;
    h.update(msg);
    const Digest d = h.finalize();
    EXPECT_EQ(d, compute(msg)) << "len=" << len;
  }
}

class Md5Chunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Md5Chunking, IncrementalMatchesOneShot) {
  util::Rng rng(99);
  std::vector<std::uint8_t> data(100'000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());

  const Digest whole = compute(data);

  Md5 h;
  const std::size_t chunk = GetParam();
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    const std::size_t n = std::min(chunk, data.size() - off);
    h.update(std::span<const std::uint8_t>(data.data() + off, n));
  }
  EXPECT_EQ(h.finalize(), whole);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Md5Chunking,
                         ::testing::Values(1, 3, 7, 63, 64, 65, 1000, 4096,
                                           99991));

TEST(Md5, MillionAs) {
  // RFC 1321's long vector: 15625 full blocks through the unrolled kernel.
  const std::string msg(1'000'000, 'a');
  EXPECT_EQ(compute(msg).hex(), "7707d6ae4e027c70eea2a935c2296f21");
  Md5 h;
  for (std::size_t off = 0; off < msg.size(); off += 4093) {
    h.update(std::string_view(msg).substr(off, 4093));
  }
  EXPECT_EQ(h.finalize().hex(), "7707d6ae4e027c70eea2a935c2296f21");
}

TEST(Md5, UnalignedSpansMatchAlignedDigest) {
  // Message words are loaded with memcpy from wherever the caller's bytes
  // sit, so a span starting at any byte offset must hash identically.
  util::Rng rng(7);
  std::vector<std::uint8_t> aligned(10'000);
  for (auto& b : aligned) b = static_cast<std::uint8_t>(rng());
  const Digest want = compute(aligned);

  for (std::size_t shift = 1; shift <= 7; ++shift) {
    std::vector<std::uint8_t> storage(aligned.size() + shift);
    std::copy(aligned.begin(), aligned.end(), storage.begin() + shift);
    const std::span<const std::uint8_t> data(storage.data() + shift,
                                             aligned.size());
    EXPECT_EQ(compute(data), want) << "shift=" << shift;

    // Chunked too, so blocks start at every offset within a word.
    Md5 h;
    for (std::size_t off = 0; off < data.size(); off += 129) {
      h.update(data.subspan(off, std::min<std::size_t>(129, data.size() - off)));
    }
    EXPECT_EQ(h.finalize(), want) << "shift=" << shift;
  }
}

TEST(Md5, ResetAllowsReuse) {
  Md5 h;
  h.update("first message");
  (void)h.finalize();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finalize().hex(), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5, MessageLengthTracksInput) {
  Md5 h;
  h.update("12345");
  h.update("678");
  EXPECT_EQ(h.message_length(), 8u);
}

TEST(Md5, DigestEqualityAndHex) {
  const Digest a = compute("abc");
  const Digest b = compute("abc");
  const Digest c = compute("abd");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hex().size(), 32u);
}

}  // namespace
}  // namespace lsl::md5
