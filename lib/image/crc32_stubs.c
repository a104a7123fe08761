/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for Image.crc32.
   x86-64 CPUs with PCLMULQDQ fold ranges of 64 bytes or more with
   carry-less multiplies (Gopal et al., "Fast CRC Computation for Generic
   Polynomials Using PCLMULQDQ Instruction", Intel 2009); the rest runs a
   slice-by-16 table loop of byte reads, independent of byte order. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>

/* Table k advances the CRC over one byte followed by k zero bytes. */
static uint32_t crc_table[16][256];

static uint32_t crc_slice16(uint32_t c, const unsigned char *p, size_t n)
{
  for (; n >= 16; n -= 16, p += 16) {
    uint32_t x = c ^ (p[0] | p[1] << 8 | p[2] << 16 | (uint32_t)p[3] << 24);
    c = 0;
#pragma GCC unroll 4
    for (int k = 0; k < 4; k++) c ^= crc_table[15 - k][(x >> (8 * k)) & 0xff];
#pragma GCC unroll 12
    for (int k = 4; k < 16; k++) c ^= crc_table[15 - k][p[k]];
  }
  for (; n > 0; n--) c = crc_table[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#include <immintrin.h>
#define CRC_FOLD __attribute__((target("pclmul,sse4.1")))

static int crc_use_fold;

/* Multiply the halves of [x] by the two constants in [k]; add [next]. */
CRC_FOLD static inline __m128i crc_fold16(__m128i x, __m128i k, __m128i next)
{
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)), next);
}

/* The CRC register after [n] bytes; [n] >= 64 and a multiple of 16.
   Four lanes fold 64 bytes at a time (k1, k2), then one lane 16 at a
   time (k3, k4); k5 takes 64 bits to 32, and a Barrett reduction by P'
   and mu = x^64 / P leaves the remainder in bits 32..63. */
CRC_FOLD static uint32_t crc_pclmul(uint32_t c, const unsigned char *p, size_t n)
{
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);
  const __m128i *q = (const __m128i *)p;
  __m128i x0 = _mm_xor_si128(_mm_loadu_si128(q), _mm_cvtsi32_si128((int)c)), t;
  __m128i x1 = _mm_loadu_si128(q + 1), x2 = _mm_loadu_si128(q + 2), x3 = _mm_loadu_si128(q + 3);
  for (q += 4, n -= 64; n >= 64; n -= 64, q += 4) {
    x0 = crc_fold16(x0, k1k2, _mm_loadu_si128(q));
    x1 = crc_fold16(x1, k1k2, _mm_loadu_si128(q + 1));
    x2 = crc_fold16(x2, k1k2, _mm_loadu_si128(q + 2));
    x3 = crc_fold16(x3, k1k2, _mm_loadu_si128(q + 3));
  }
  x0 = crc_fold16(crc_fold16(crc_fold16(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; n >= 16; n -= 16, q++) x0 = crc_fold16(x0, k3k4, _mm_loadu_si128(q));
  t = _mm_clmulepi64_si128(x0, k3k4, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), t);
  t = _mm_srli_si128(x0, 4);
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00), t);
  t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return (uint32_t)_mm_extract_epi32(_mm_xor_si128(x0, t), 1);
}
#endif

/* Builds the tables and reads CPUID; called once, as image.ml starts. */
value gbc_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_table[0][n] = c;
  }
  for (int k = 1; k < 16; k++)
    for (int n = 0; n < 256; n++)
      crc_table[k][n] = (crc_table[k - 1][n] >> 8) ^ crc_table[0][crc_table[k - 1][n] & 0xff];
#ifdef CRC_FOLD
  unsigned int a, b, c, d;
  crc_use_fold = __get_cpuid(1, &a, &b, &c, &d) && (c & bit_PCLMUL) && (c & bit_SSE4_1);
#endif
  return Val_unit;
}

/* image.ml has bounds-checked [pos, pos + len); no bytes give 0. */
static value crc_run(value s, value pos, value vlen, int fold)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + Long_val(pos);
  size_t n = Long_val(vlen) > 0 ? (size_t)Long_val(vlen) : 0;
  uint32_t c = 0xFFFFFFFFu;
#ifdef CRC_FOLD
  if (fold && crc_use_fold && n >= 64) {
    size_t folded = n & ~(size_t)15;
    c = crc_pclmul(c, p, folded);
    p += folded, n -= folded;
  }
#endif
  return Val_long(crc_slice16(c, p, n) ^ 0xFFFFFFFFu);
}

value gbc_crc32(value s, value pos, value len) { return crc_run(s, pos, len, 1); }
value gbc_crc32_portable(value s, value pos, value len) { return crc_run(s, pos, len, 0); }
