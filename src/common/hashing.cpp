#include "common/hashing.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define SF_HAVE_X86_CRC32C 1
#endif

namespace smartflux::detail {

namespace {

#ifdef SF_HAVE_X86_CRC32C
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(const char* data, std::size_t n,
                                                              std::uint32_t seed) noexcept {
  std::uint64_t c = seed ^ 0xffffffffu;
  for (; n >= 8; n -= 8, data += 8) {
    std::uint64_t word;
    std::memcpy(&word, data, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; --n, ++data) c32 = _mm_crc32_u8(c32, static_cast<unsigned char>(*data));
  return c32 ^ 0xffffffffu;
}
#endif

using Crc32cFn = std::uint32_t (*)(const char*, std::size_t, std::uint32_t) noexcept;

Crc32cFn select_crc32c() noexcept {
#ifdef SF_HAVE_X86_CRC32C
  __builtin_cpu_init();  // the first checksum may run during static initialization
  if (__builtin_cpu_supports("sse4.2")) return &crc32c_sse42;
#endif
  return &crc32c_table;
}

}  // namespace

std::uint32_t crc32c_runtime(const char* data, std::size_t n, std::uint32_t seed) noexcept {
  static const Crc32cFn impl = select_crc32c();
  return impl(data, n, seed);
}

}  // namespace smartflux::detail
