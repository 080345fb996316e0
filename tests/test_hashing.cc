/** @file Unit tests for common/hashing.h. */
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/hashing.h"

namespace moka {
namespace {

TEST(Hashing, Mix64Deterministic)
{
    EXPECT_EQ(mix64(12345), mix64(12345));
    EXPECT_NE(mix64(12345), mix64(12346));
}

TEST(Hashing, Mix64SpreadsLowBits)
{
    // Sequential inputs should produce well-spread low bits.
    std::set<std::uint64_t> low;
    for (std::uint64_t i = 0; i < 256; ++i) {
        low.insert(mix64(i) & 0xFF);
    }
    EXPECT_GT(low.size(), 150u);
}

TEST(Hashing, HashCombineOrderSensitive)
{
    EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Hashing, TableIndexBounded)
{
    for (unsigned bits : {4u, 9u, 10u, 12u}) {
        for (std::uint64_t v : {0ull, 1ull, 0xFFFFull, 0xDEADBEEFCAFEull}) {
            EXPECT_LT(table_index(v, bits), 1u << bits);
        }
    }
}

TEST(Hashing, TableIndexDistribution)
{
    // Page-aligned addresses (typical feature values) must not
    // cluster into few table entries.
    std::set<std::uint32_t> idx;
    for (std::uint64_t page = 0; page < 512; ++page) {
        idx.insert(table_index(page << 12, 9));
    }
    EXPECT_GT(idx.size(), 300u);
}

TEST(Hashing, Checksum64SeesEveryBitAndTheLength)
{
    // Every length through two full 32-byte stripes plus a partial
    // word: each single-bit flip, and each zero-extension, moves the
    // sum.
    std::vector<unsigned char> buf(2 * 32 + 7);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<unsigned char>(i * 131 + 7);
    }
    std::set<std::uint64_t> zeros;
    const std::vector<unsigned char> zero(buf.size(), 0);
    for (std::size_t n = 0; n <= buf.size(); ++n) {
        zeros.insert(checksum64(zero.data(), n));
        const std::uint64_t base = checksum64(buf.data(), n);
        for (std::size_t at = 0; at < n; ++at) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                buf[at] ^= static_cast<unsigned char>(1u << bit);
                EXPECT_NE(checksum64(buf.data(), n), base)
                    << "length " << n << ", byte " << at << ", bit " << bit;
                buf[at] ^= static_cast<unsigned char>(1u << bit);
            }
        }
    }
    EXPECT_EQ(zeros.size(), buf.size() + 1);
}

TEST(Hashing, Checksum64SeesSwappedWords)
{
    // Lanes and tail words are position-sensitive: swapping two words
    // of a stripe, or two stripes, moves the sum.
    std::vector<std::uint64_t> words(12);
    for (std::size_t i = 0; i < words.size(); ++i) {
        words[i] = mix64(i + 1);
    }
    const std::uint64_t base = checksum64(words.data(), 8 * words.size());
    for (const auto &[a, b] : {std::pair{0, 1}, std::pair{0, 4},
                               std::pair{3, 8}, std::pair{9, 10}}) {
        std::vector<std::uint64_t> swapped = words;
        std::swap(swapped[a], swapped[b]);
        EXPECT_NE(checksum64(swapped.data(), 8 * swapped.size()), base)
            << "words " << a << " and " << b;
    }
}

}  // namespace
}  // namespace moka
