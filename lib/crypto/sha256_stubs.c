/* SHA-256 (FIPS 180-4) compression in C, with two kernels:

   - SHA-NI: the x86 SHA extensions (sha256rnds2/msg1/msg2), compiled
     per-function with a target attribute so the rest of the build keeps
     the toolchain's default instruction set;
   - portable: plain 32-bit C, for every other host.

   [caml_siri_sha256_select], called once from the OCaml module
   initializer before any domain can be spawned, probes cpuid and picks
   the kernel; until then (and forever on hosts without the extensions)
   the portable kernel runs.

   A digest covers two pieces [a[aoff..aoff+alen)] and [b[boff..boff+blen)]
   and runs start to finish in one call, with its state on the C stack.
   The OCaml side checks every offset and length before calling, and the
   externals are [noalloc], so the input strings cannot move under us. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define SIRI_SHA_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

typedef void (*compress_fn)(uint32_t st[8], const uint8_t *p, size_t nblocks);

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

static const uint32_t IV[8] = {
  0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
  0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19
};

/* ---- portable kernel ---------------------------------------------------- */

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static inline uint32_t load_be32(const uint8_t *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
       | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void compress_portable(uint32_t st[8], const uint8_t *p, size_t n)
{
  uint32_t w[64];
  for (; n > 0; n--, p += 64) {
    for (int i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (int i = 16; i < 64; i++) {
      uint32_t s0 = ROTR(w[i - 15], 7) ^ ROTR(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = ROTR(w[i - 2], 17) ^ ROTR(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
    for (int i = 0; i < 64; i++) {
      uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
                  + ((e & f) ^ (~e & g)) + K[i] + w[i];
      uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
                  + ((a & b) ^ (a & c) ^ (b & c));
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
    st[4] += e; st[5] += f; st[6] += g; st[7] += h;
  }
}

/* ---- SHA-NI kernel ------------------------------------------------------ */

#ifdef SIRI_SHA_X86

#define SHANI __attribute__((target("sha,sse4.1,ssse3")))

/* Four rounds on the message words in [w]: rnds2 does two at a time. */
#define ROUNDS4(k, w)                                                   \
  do {                                                                  \
    __m128i m_ = _mm_add_epi32((w), _mm_loadu_si128((const __m128i *)(K + (k)))); \
    s1 = _mm_sha256rnds2_epu32(s1, s0, m_);                             \
    m_ = _mm_shuffle_epi32(m_, 0x0E);                                   \
    s0 = _mm_sha256rnds2_epu32(s0, s1, m_);                             \
  } while (0)

/* Finish the next four schedule words [wnext] from the current [wcur] and
   previous [wprev] group (must run before [wprev] is overwritten). */
#define SCHED2(wcur, wprev, wnext)                                      \
  (wnext) = _mm_sha256msg2_epu32(                                       \
      _mm_add_epi32((wnext), _mm_alignr_epi8((wcur), (wprev), 4)), (wcur))

/* Start the schedule words three groups ahead, in place of [wprev]. */
#define SCHED1(wprev, wcur) (wprev) = _mm_sha256msg1_epu32((wprev), (wcur))

SHANI static void compress_shani(uint32_t st[8], const uint8_t *p, size_t n)
{
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  /* The rounds instruction wants the state as ABEF and CDGH. */
  __m128i t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)st), 0xB1);
  __m128i s1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(st + 4)), 0x1B);
  __m128i s0 = _mm_alignr_epi8(t, s1, 8);
  s1 = _mm_blend_epi16(s1, t, 0xF0);

  for (; n > 0; n--, p += 64) {
    const __m128i save0 = s0, save1 = s1;
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);

    ROUNDS4(0, w0);
    ROUNDS4(4, w1);  SCHED1(w0, w1);
    ROUNDS4(8, w2);  SCHED1(w1, w2);
    ROUNDS4(12, w3); SCHED2(w3, w2, w0); SCHED1(w2, w3);
    ROUNDS4(16, w0); SCHED2(w0, w3, w1); SCHED1(w3, w0);
    ROUNDS4(20, w1); SCHED2(w1, w0, w2); SCHED1(w0, w1);
    ROUNDS4(24, w2); SCHED2(w2, w1, w3); SCHED1(w1, w2);
    ROUNDS4(28, w3); SCHED2(w3, w2, w0); SCHED1(w2, w3);
    ROUNDS4(32, w0); SCHED2(w0, w3, w1); SCHED1(w3, w0);
    ROUNDS4(36, w1); SCHED2(w1, w0, w2); SCHED1(w0, w1);
    ROUNDS4(40, w2); SCHED2(w2, w1, w3); SCHED1(w1, w2);
    ROUNDS4(44, w3); SCHED2(w3, w2, w0); SCHED1(w2, w3);
    ROUNDS4(48, w0); SCHED2(w0, w3, w1); SCHED1(w3, w0);
    ROUNDS4(52, w1); SCHED2(w1, w0, w2);
    ROUNDS4(56, w2); SCHED2(w2, w1, w3);
    ROUNDS4(60, w3);

    s0 = _mm_add_epi32(s0, save0);
    s1 = _mm_add_epi32(s1, save1);
  }

  t = _mm_shuffle_epi32(s0, 0x1B);
  s1 = _mm_shuffle_epi32(s1, 0xB1);
  _mm_storeu_si128((__m128i *)st, _mm_blend_epi16(t, s1, 0xF0));
  _mm_storeu_si128((__m128i *)(st + 4), _mm_alignr_epi8(s1, t, 8));
}

static int cpu_has_shani(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return 0;
  if (__get_cpuid_max(0, NULL) < 7) return 0;
  __cpuid_count(7, 0, a, b, c, d);
  return (b & bit_SHA) != 0;
}

#endif /* SIRI_SHA_X86 */

/* ---- one-shot digest ---------------------------------------------------- */

static compress_fn compress_selected = compress_portable;

typedef struct {
  uint32_t st[8];
  uint8_t buf[128];   /* a partial block, then room for its padding */
  size_t fill;
} sha_state;

static inline void absorb(compress_fn f, sha_state *s, const uint8_t *p, size_t len)
{
  if (s->fill > 0) {
    size_t take = 64 - s->fill;
    if (take > len) take = len;
    memcpy(s->buf + s->fill, p, take);
    s->fill += take;
    p += take;
    len -= take;
    if (s->fill < 64) return;
    f(s->st, s->buf, 1);
    s->fill = 0;
  }
  if (len >= 64) {
    f(s->st, p, len / 64);
    p += len & ~(size_t)63;
    len &= 63;
  }
  memcpy(s->buf, p, len);
  s->fill = len;
}

static void digest_two(compress_fn f,
                       const uint8_t *a, size_t alen,
                       const uint8_t *b, size_t blen, uint8_t out[32])
{
  sha_state s;
  uint64_t bits = ((uint64_t)alen + (uint64_t)blen) * 8;
  memcpy(s.st, IV, sizeof IV);
  s.fill = 0;
  absorb(f, &s, a, alen);
  absorb(f, &s, b, blen);
  /* 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit length. */
  size_t n = s.fill < 56 ? 64 : 128;
  s.buf[s.fill] = 0x80;
  memset(s.buf + s.fill + 1, 0, n - 8 - s.fill - 1);
  for (int i = 0; i < 8; i++) s.buf[n - 1 - i] = (uint8_t)(bits >> (8 * i));
  f(s.st, s.buf, n / 64);
  for (int i = 0; i < 8; i++) {
    out[4 * i] = (uint8_t)(s.st[i] >> 24);
    out[4 * i + 1] = (uint8_t)(s.st[i] >> 16);
    out[4 * i + 2] = (uint8_t)(s.st[i] >> 8);
    out[4 * i + 3] = (uint8_t)s.st[i];
  }
}

/* ---- OCaml entry points ------------------------------------------------- */

/* Picks the kernel; returns 1 when SHA-NI was selected. */
value caml_siri_sha256_select(value unit)
{
  (void)unit;
#ifdef SIRI_SHA_X86
  if (cpu_has_shani()) {
    compress_selected = compress_shani;
    return Val_true;
  }
#endif
  return Val_false;
}

static inline void two(compress_fn f, value a, intnat aoff, intnat alen,
                       value b, intnat boff, intnat blen, value out)
{
  digest_two(f, (const uint8_t *)String_val(a) + aoff, (size_t)alen,
             (const uint8_t *)String_val(b) + boff, (size_t)blen,
             (uint8_t *)Bytes_val(out));
}

value caml_siri_sha256_two(value a, intnat aoff, intnat alen,
                           value b, intnat boff, intnat blen, value out)
{
  two(compress_selected, a, aoff, alen, b, boff, blen, out);
  return Val_unit;
}

value caml_siri_sha256_two_portable(value a, intnat aoff, intnat alen,
                                    value b, intnat boff, intnat blen,
                                    value out)
{
  two(compress_portable, a, aoff, alen, b, boff, blen, out);
  return Val_unit;
}

value caml_siri_sha256_two_byte(value *argv, int argn)
{
  (void)argn;
  two(compress_selected, argv[0], Long_val(argv[1]), Long_val(argv[2]),
      argv[3], Long_val(argv[4]), Long_val(argv[5]), argv[6]);
  return Val_unit;
}

value caml_siri_sha256_two_portable_byte(value *argv, int argn)
{
  (void)argn;
  two(compress_portable, argv[0], Long_val(argv[1]), Long_val(argv[2]),
      argv[3], Long_val(argv[4]), Long_val(argv[5]), argv[6]);
  return Val_unit;
}
