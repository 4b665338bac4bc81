// Bit-parallel frontier packing shared by the DP routers.
//
// Both assignment-graph DPs (alg/dp.cpp, alg/generalized_dp.cpp) spend
// their hot loop creating, hashing, and deduplicating per-track frontier
// states. The scalar layout stored those states as arrays of 32-bit
// fields, so every dedup probe walked 4*T (or 16*T) bytes and every hash
// mixed one field at a time. The values themselves are tiny — a frontier
// column is bounded by width+1 and an occupant id by the connection
// count — so a whole state fits in one or two 64-bit words.
//
// This header is that packing layer:
//
//  - FrontierCodec: packs a fixed sequence of small non-negative fields
//    into consecutive u64 words (fields never straddle a word boundary,
//    so a single field can be rewritten with two masked ops). Packing is
//    injective — distinct field vectors give distinct words — which is
//    what keeps word-compare dedup *exact*, not approximate. Uniform
//    layouts (all fields one width — the DP frontier) run a table-free
//    path: pure shift chains, no per-field memory traffic and no heap
//    allocation at init.
//  - hash_words: word-at-a-time mix (splitmix64 finalizer per word)
//    replacing field-at-a-time FNV-1a.
//  - words_equal: branchless state equality over 1..n words.
//  - ProbeBatch: a small staging area that defers open-addressing
//    probes so the slot-array cache misses of up to 8 candidates overlap.
//    Candidates are resolved strictly in arrival order, so dedup
//    semantics (node ids, insertion order, min-weight updates) are
//    identical to probing immediately. It pays only once the slot array
//    misses cache: the DP stages from alg::kProbeBatchMinBytes up, the
//    generalized DP from 32 KB (DESIGN.md §13.3). Storage is
//    caller-provided so a workspace can pool it with its other word
//    buffers.
//
// Everything here is plain portable C++ — word ops only, no intrinsics;
// the win comes from the data layout, and the clamp/pack loops are
// written to auto-vectorize (see DESIGN.md §13).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace segroute::alg::bits {

/// splitmix64 finalizer: full-avalanche 64-bit mix, so states differing
/// in a single packed field land in unrelated hash buckets.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Word-at-a-time state hash. Seeded by the word count so slices of
/// different shapes never alias.
inline std::uint64_t hash_words(const std::uint64_t* w, std::size_t n) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull + n;
  for (std::size_t i = 0; i < n; ++i) h = mix64(h ^ w[i]);
  return h;
}

/// hash_words for the single-word case with the key in a register:
/// identical to hash_words(&w, 1) bit for bit.
inline std::uint64_t hash_word(std::uint64_t w) {
  return mix64((0x9e3779b97f4a7c15ull + 1) ^ w);
}

/// Branchless equality over n words (n is 1 or 2 for typical channels;
/// OR-reducing the XORs beats an early-exit memcmp at those sizes).
inline bool words_equal(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n) {
  std::uint64_t d = 0;
  for (std::size_t i = 0; i < n; ++i) d |= a[i] ^ b[i];
  return d == 0;
}

/// Read-prefetch that compiles away where unsupported.
inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#endif
}

// Forces a lambda's call operator inline. The DP routers resolve one
// dedup probe per expansion through a local lambda; left to heuristics,
// GCC keeps it out of line and pays a spill/call per expansion.
#if defined(__GNUC__) || defined(__clang__)
#define SEGROUTE_BITS_FORCE_INLINE __attribute__((always_inline))
#else
#define SEGROUTE_BITS_FORCE_INLINE
#endif

/// Packs n fixed-width bitfields into consecutive 64-bit words.
///
/// The field sequence is a width *pattern* repeated `repeat` times
/// (pattern {7} x T for the DP's per-track columns; {7,6,6,6} x T for
/// the generalized DP's per-track Entry). Fields are assigned to words
/// greedily in order and never straddle a word boundary, so field i
/// lives entirely at word_of(i) >> shift(i). All fields must be
/// non-negative and fit their declared width; pack() masks nothing —
/// the caller guarantees the bound (both DPs derive widths from
/// bit_width of the true maxima).
///
/// init_uniform() allocates nothing; init() (heterogeneous patterns)
/// builds per-field layout tables but reuses their capacity, so a codec
/// embedded in a long-lived workspace is allocation-free once warm.
class FrontierCodec {
 public:
  void init(const std::uint8_t* pattern, std::size_t pattern_len,
            std::size_t repeat) {
    const std::size_t n = pattern_len * repeat;
    num_fields_ = n;
    if (pattern_len == 1) {
      init_uniform_bits(n, pattern[0]);
      return;
    }
    uniform_bits_ = 0;
    fields_per_word_ = 0;
    word_of_.resize(n);
    shift_.resize(n);
    mask_.resize(n);
    std::uint32_t word = 0;
    std::uint32_t bit = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t w = pattern[i % pattern_len];
      if (bit + w > 64) {
        ++word;
        bit = 0;
      }
      word_of_[i] = word;
      shift_[i] = static_cast<std::uint8_t>(bit);
      mask_[i] = (w >= 64) ? ~0ull : ((1ull << w) - 1);
      bit += w;
    }
    words_ = n == 0 ? 0 : word + 1;
  }

  /// n fields, each holding values in [0, max_value]. Table-free.
  void init_uniform(std::size_t n, std::uint32_t max_value) {
    num_fields_ = n;
    init_uniform_bits(
        n, static_cast<std::uint8_t>(std::bit_width(max_value | 1u)));
  }

  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::size_t num_fields() const { return num_fields_; }
  /// Bits per field (uniform layouts; 0 when heterogeneous).
  [[nodiscard]] std::uint32_t uniform_bits() const { return uniform_bits_; }
  [[nodiscard]] std::uint32_t fields_per_word() const {
    return fields_per_word_;
  }

  /// Packs num_fields() non-negative values into words() words.
  void pack(const std::int32_t* vals, std::uint64_t* out) const {
    const std::size_t n = num_fields_;
    if (uniform_bits_ != 0 || n == 0) {
      const std::uint32_t B = uniform_bits_;
      std::size_t i = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        const std::size_t lim = std::min<std::size_t>(fields_per_word_, n - i);
        std::uint64_t x = 0;
        std::uint32_t s = 0;
        for (std::size_t k = 0; k < lim; ++k, s += B) {
          x |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(vals[i++]))
               << s;
        }
        out[w] = x;
      }
      return;
    }
    for (std::size_t w = 0; w < words_; ++w) out[w] = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out[word_of_[i]] |=
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(vals[i]))
          << shift_[i];
    }
  }

  void unpack(const std::uint64_t* in, std::int32_t* vals) const {
    const std::size_t n = num_fields_;
    if (uniform_bits_ != 0 || n == 0) {
      const std::uint32_t B = uniform_bits_;
      const std::uint64_t fm = field_mask(B);
      std::size_t i = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        const std::size_t lim = std::min<std::size_t>(fields_per_word_, n - i);
        std::uint64_t x = in[w];
        for (std::size_t k = 0; k < lim; ++k, x >>= B) {
          vals[i++] = static_cast<std::int32_t>(x & fm);
        }
      }
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      vals[i] =
          static_cast<std::int32_t>((in[word_of_[i]] >> shift_[i]) & mask_[i]);
    }
  }

  /// Overwrites field i in an already packed state.
  void set_field(std::uint64_t* words, std::size_t i, std::int32_t v) const {
    std::size_t w;
    std::uint32_t s;
    std::uint64_t fm;
    if (uniform_bits_ != 0) {
      w = i / fields_per_word_;
      s = static_cast<std::uint32_t>(i % fields_per_word_) * uniform_bits_;
      fm = field_mask(uniform_bits_);
    } else {
      w = word_of_[i];
      s = shift_[i];
      fm = mask_[i];
    }
    words[w] = (words[w] & ~(fm << s)) |
               (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) << s);
  }

 private:
  static std::uint64_t field_mask(std::uint32_t bits) {
    return bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  }

  void init_uniform_bits(std::size_t n, std::uint8_t bits) {
    uniform_bits_ = bits;
    fields_per_word_ = bits != 0 ? 64u / bits : 1;
    words_ = n == 0 ? 0 : (n + fields_per_word_ - 1) / fields_per_word_;
  }

  std::vector<std::uint32_t> word_of_;
  std::vector<std::uint8_t> shift_;
  std::vector<std::uint64_t> mask_;
  std::size_t words_ = 0;
  std::size_t num_fields_ = 0;
  std::uint32_t uniform_bits_ = 0;  // field width when uniform, else 0
  std::uint32_t fields_per_word_ = 0;
};

/// Deferred dedup probes over an open-addressing table of packed states.
///
/// The caller stages a candidate by writing its packed words to
/// slot_words() and push()ing its hash and metadata, then flushes when
/// the batch is full — prefetching every staged candidate's home slot
/// first, then resolving them one by one in arrival order against the
/// live table. Callers stage only while the table is too large for
/// cache and probe immediately below that; staging a cache-resident
/// probe costs more than the prefetch hides. Because resolution is
/// sequential, a candidate sees every earlier candidate's insertion
/// exactly as immediate probing would; only the memory latency of the
/// initial slot loads is overlapped. Word storage is caller-provided
/// (reset()), so a workspace can pool it with its other buffers.
struct ProbeBatch {
  static constexpr std::size_t kCapacity = 8;

  std::size_t count = 0;
  std::size_t words_per_state = 0;
  std::uint64_t hash[kCapacity];
  std::int64_t origin[kCapacity];  // parent node id
  std::int32_t aux[kCapacity];     // edge label: class (DP) / track (GDP)
  double weight[kCapacity];        // Problem-3 path weight (DP only)
  std::uint64_t* words = nullptr;  // candidate i at [i*words_per_state, ..)

  /// Binds the staging storage; `storage` must hold at least
  /// kCapacity * wps words and outlive the batch's use.
  void reset(std::size_t wps, std::uint64_t* storage) {
    count = 0;
    words_per_state = wps;
    words = storage;
  }

  [[nodiscard]] bool full() const { return count == kCapacity; }
  [[nodiscard]] std::uint64_t* slot_words() {
    return words + count * words_per_state;
  }

  /// Stages the candidate whose packed words were already written to
  /// slot_words().
  void push(std::uint64_t h, std::int64_t ni, std::int32_t a, double w) {
    hash[count] = h;
    origin[count] = ni;
    aux[count] = a;
    weight[count] = w;
    ++count;
  }
};

}  // namespace segroute::alg::bits
