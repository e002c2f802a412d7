/**
 * @file
 * Hash functions (bloom probing, shard routing, zipfian scrambling)
 * and CRC32C, the one integrity checksum behind every verified read.
 */
#ifndef MIO_UTIL_HASH_H_
#define MIO_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace mio {

/**
 * LevelDB-style Murmur-ish 32-bit hash of a byte range (the bloom
 * filter's second probe). Not an integrity checksum: use crc32c().
 */
uint32_t hash32(const char *data, size_t n, uint32_t seed);

/** FNV-1a 64-bit hash, used where more bits are useful (bloom probing). */
uint64_t hash64(const char *data, size_t n, uint64_t seed = 14695981039346656037ULL);

/**
 * CRC32C (Castagnoli, RFC 3720) of a byte range. @p init is the CRC of
 * the bytes before @p data, so a CRC can be extended piece by piece:
 * crc32c(b, crc32c(a)) equals the CRC of a followed by b.
 * Detects every single-bit flip and every error burst of up to 32
 * bits. On x86-64 hosts with SSE4.2 (checked once at run time) it runs
 * on the crc32 instruction; elsewhere on crc32cPortable().
 */
uint32_t crc32c(const char *data, size_t n, uint32_t init = 0);

/** Table-driven CRC32C; same result as crc32c() on every host. */
uint32_t crc32cPortable(const char *data, size_t n, uint32_t init = 0);

/** True when crc32c() runs on the SSE4.2 crc32 instruction. */
bool crc32cUsesHardware();

/**
 * Checksum of one stored record: value-log frames and payloads, WAL
 * frames and SSTable bodies.
 */
inline uint32_t
recordChecksum(const char *data, size_t n)
{
    return crc32c(data, n);
}

} // namespace mio

#endif // MIO_UTIL_HASH_H_
