/** @file Unit tests for varint/fixed integer coding, hashing and the
 *  CRC32C checksum kernel. */
#include <gtest/gtest.h>

#include <string>

#include "util/coding.h"
#include "util/hash.h"

namespace mio {
namespace {

TEST(CodingTest, Fixed32RoundTrip)
{
    std::string s;
    putFixed32(&s, 0);
    putFixed32(&s, 1);
    putFixed32(&s, 0xdeadbeef);
    EXPECT_EQ(s.size(), 12u);
    EXPECT_EQ(decodeFixed32(s.data()), 0u);
    EXPECT_EQ(decodeFixed32(s.data() + 4), 1u);
    EXPECT_EQ(decodeFixed32(s.data() + 8), 0xdeadbeefu);
}

TEST(CodingTest, Fixed64RoundTrip)
{
    std::string s;
    putFixed64(&s, 0x0123456789abcdefULL);
    EXPECT_EQ(decodeFixed64(s.data()), 0x0123456789abcdefULL);
}

TEST(CodingTest, Varint32RoundTrip)
{
    std::string s;
    std::vector<uint32_t> values;
    for (uint32_t shift = 0; shift < 32; shift++) {
        values.push_back(1u << shift);
        values.push_back((1u << shift) - 1);
        values.push_back((1u << shift) + 1);
    }
    values.push_back(0);
    values.push_back(UINT32_MAX);
    for (uint32_t v : values)
        putVarint32(&s, v);

    Slice input(s);
    for (uint32_t expected : values) {
        uint32_t v;
        ASSERT_TRUE(getVarint32(&input, &v));
        EXPECT_EQ(v, expected);
    }
    EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint64RoundTrip)
{
    std::string s;
    std::vector<uint64_t> values = {0, 1, 127, 128, 16384,
                                    (1ULL << 40) + 3, UINT64_MAX};
    for (uint64_t v : values)
        putVarint64(&s, v);
    Slice input(s);
    for (uint64_t expected : values) {
        uint64_t v;
        ASSERT_TRUE(getVarint64(&input, &v));
        EXPECT_EQ(v, expected);
    }
}

TEST(CodingTest, VarintLength)
{
    EXPECT_EQ(varintLength(0), 1);
    EXPECT_EQ(varintLength(127), 1);
    EXPECT_EQ(varintLength(128), 2);
    EXPECT_EQ(varintLength(UINT64_MAX), 10);
}

TEST(CodingTest, TruncatedVarintFails)
{
    std::string s;
    putVarint32(&s, 1u << 30);  // 5-byte encoding
    Slice input(s.data(), s.size() - 1);
    uint32_t v;
    EXPECT_FALSE(getVarint32(&input, &v));
}

TEST(CodingTest, LengthPrefixedSlice)
{
    std::string s;
    putLengthPrefixedSlice(&s, Slice("hello"));
    putLengthPrefixedSlice(&s, Slice(""));
    putLengthPrefixedSlice(&s, Slice("world!"));
    Slice input(s);
    Slice a, b, c;
    ASSERT_TRUE(getLengthPrefixedSlice(&input, &a));
    ASSERT_TRUE(getLengthPrefixedSlice(&input, &b));
    ASSERT_TRUE(getLengthPrefixedSlice(&input, &c));
    EXPECT_EQ(a.toString(), "hello");
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(c.toString(), "world!");
    EXPECT_FALSE(getLengthPrefixedSlice(&input, &a));
}

TEST(CodingTest, LengthPrefixTruncatedBodyFails)
{
    std::string s;
    putLengthPrefixedSlice(&s, Slice("hello"));
    Slice input(s.data(), s.size() - 2);
    Slice out;
    EXPECT_FALSE(getLengthPrefixedSlice(&input, &out));
}

TEST(HashTest, DeterministicAndSeedSensitive)
{
    std::string data = "some bytes";
    EXPECT_EQ(hash32(data.data(), data.size(), 1),
              hash32(data.data(), data.size(), 1));
    EXPECT_NE(hash32(data.data(), data.size(), 1),
              hash32(data.data(), data.size(), 2));
    EXPECT_EQ(hash64(data.data(), data.size()),
              hash64(data.data(), data.size()));
}

TEST(HashTest, ShortInputs)
{
    // Each length 0..4 exercises a different tail path.
    for (size_t len = 0; len <= 4; len++) {
        std::string a(len, 'x');
        std::string b(len, 'y');
        uint32_t ha = hash32(a.data(), a.size(), 7);
        uint32_t hb = hash32(b.data(), b.size(), 7);
        if (len > 0) {
            EXPECT_NE(ha, hb) << "len=" << len;
        }
    }
}

using CrcFn = uint32_t (*)(const char *, size_t, uint32_t);

TEST(Crc32cTest, Rfc3720Vectors)
{
    // RFC 3720 Sec. B.4 test patterns.
    std::string zeros(32, '\0');
    std::string ones(32, '\xff');
    std::string ascending(32, '\0');
    std::string descending(32, '\0');
    for (int i = 0; i < 32; i++) {
        ascending[i] = static_cast<char>(i);
        descending[i] = static_cast<char>(31 - i);
    }
    for (CrcFn crc : {CrcFn(crc32c), CrcFn(crc32cPortable)}) {
        EXPECT_EQ(crc(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
        EXPECT_EQ(crc(ones.data(), ones.size(), 0), 0x62A8AB43u);
        EXPECT_EQ(crc(ascending.data(), ascending.size(), 0),
                  0x46DD794Eu);
        EXPECT_EQ(crc(descending.data(), descending.size(), 0),
                  0x113FDB5Cu);
        EXPECT_EQ(crc("123456789", 9, 0), 0xE3069283u);
        EXPECT_EQ(crc("", 0, 0), 0u);
    }
    EXPECT_EQ(recordChecksum("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, HardwarePathMatchesPortableAtEveryLengthAndAlignment)
{
    // On a host without SSE4.2 both sides run the portable loop and
    // this only re-checks it against itself.
    RecordProperty("hardware", crc32cUsesHardware() ? "sse4.2" : "none");
    std::string buf(1024 + 8, '\0');
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (char &c : buf) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c = static_cast<char>(x);
    }
    for (size_t off = 0; off < 8; off++) {
        for (size_t len = 0; len <= 1024; len++) {
            const char *p = buf.data() + off;
            ASSERT_EQ(crc32c(p, len), crc32cPortable(p, len))
                << "off=" << off << " len=" << len;
            ASSERT_EQ(crc32c(p, len, 0xdeadbeef),
                      crc32cPortable(p, len, 0xdeadbeef))
                << "off=" << off << " len=" << len;
        }
    }
}

TEST(Crc32cTest, ChainingEqualsOneShot)
{
    std::string data;
    for (int i = 0; i < 300; i++)
        data.push_back(static_cast<char>(i * 7 + 3));
    const uint32_t whole = crc32c(data.data(), data.size());
    for (size_t split = 0; split <= data.size(); split++) {
        uint32_t a = crc32c(data.data(), split);
        EXPECT_EQ(crc32c(data.data() + split, data.size() - split, a),
                  whole)
            << "split=" << split;
        EXPECT_EQ(crc32cPortable(data.data() + split,
                                 data.size() - split,
                                 crc32cPortable(data.data(), split)),
                  whole)
            << "split=" << split;
    }
}

} // namespace
} // namespace mio
