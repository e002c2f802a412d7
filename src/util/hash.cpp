#include "util/hash.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define MIO_CRC32C_X86 1
#endif

namespace mio {

namespace {

// Byte-at-a-time table for the reflected Castagnoli polynomial.
struct Crc32cTable {
    uint32_t t[256];

    constexpr Crc32cTable() : t()
    {
        for (uint32_t i = 0; i < 256; i++) {
            uint32_t c = i;
            for (int k = 0; k < 8; k++)
                c = (c >> 1) ^ ((c & 1) ? 0x82f63b78u : 0);
            t[i] = c;
        }
    }
};

constexpr Crc32cTable kCrc32cTable;

#ifdef MIO_CRC32C_X86
// Takes and returns the register form (bits inverted).
__attribute__((target("sse4.2"))) uint32_t
crc32cSse42(uint32_t crc, const char *data, size_t n)
{
    uint64_t c = crc;
    for (; n >= 8; data += 8, n -= 8) {
        uint64_t w;
        memcpy(&w, data, 8);
        c = _mm_crc32_u64(c, w);
    }
    crc = static_cast<uint32_t>(c);
    for (; n > 0; data++, n--)
        crc = _mm_crc32_u8(crc, static_cast<uint8_t>(*data));
    return crc;
}

bool
detectSse42()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2");
}

// A call made before this is initialised takes the portable loop,
// which computes the same value.
const bool g_crc32c_hw = detectSse42();
#else
const bool g_crc32c_hw = false;
#endif

} // namespace

uint32_t
crc32cPortable(const char *data, size_t n, uint32_t init)
{
    const auto *p = reinterpret_cast<const uint8_t *>(data);
    uint32_t crc = ~init;
    for (size_t i = 0; i < n; i++)
        crc = kCrc32cTable.t[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

uint32_t
crc32c(const char *data, size_t n, uint32_t init)
{
#ifdef MIO_CRC32C_X86
    if (g_crc32c_hw)
        return ~crc32cSse42(~init, data, n);
#endif
    return crc32cPortable(data, n, init);
}

bool
crc32cUsesHardware()
{
    return g_crc32c_hw;
}

uint32_t
hash32(const char *data, size_t n, uint32_t seed)
{
    // Murmur-inspired mixing as used by LevelDB's Hash().
    const uint32_t m = 0xc6a4a793;
    const uint32_t r = 24;
    const char *limit = data + n;
    uint32_t h = seed ^ (static_cast<uint32_t>(n) * m);

    while (data + 4 <= limit) {
        uint32_t w;
        memcpy(&w, data, 4);
        data += 4;
        h += w;
        h *= m;
        h ^= (h >> 16);
    }

    switch (limit - data) {
      case 3:
        h += static_cast<uint8_t>(data[2]) << 16;
        [[fallthrough]];
      case 2:
        h += static_cast<uint8_t>(data[1]) << 8;
        [[fallthrough]];
      case 1:
        h += static_cast<uint8_t>(data[0]);
        h *= m;
        h ^= (h >> r);
        break;
    }
    return h;
}

uint64_t
hash64(const char *data, size_t n, uint64_t seed)
{
    const uint64_t prime = 1099511628211ULL;
    uint64_t h = seed;
    for (size_t i = 0; i < n; i++) {
        h ^= static_cast<uint8_t>(data[i]);
        h *= prime;
    }
    return h;
}

} // namespace mio
