// Small self-contained helpers for the benchmark: a seeded PRNG, the TPC-C
// and YCSB key distributions, order-preserving key encoding and hashing.
// Nothing here comes from the engine, so engine changes cannot alter the
// inputs a workload generates.
#ifndef EBENCH_UTIL_H_
#define EBENCH_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace ebench {

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

inline uint64_t Fnv1a(const void* data, size_t n,
                      uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// splitmix64-seeded xorshift64*: cheap, and each (seed, stream) pair gives a
// reproducible sequence.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream)
      : s_(Mix64(seed * 0x9e3779b97f4a7c15ull + stream + 1) | 1) {}

  uint64_t Next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545f4914f6cdd1dull;
  }
  // Uniform in [lo, hi].
  uint64_t Uniform(uint64_t lo, uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }
  double NextDouble() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  bool Bernoulli(double p) { return NextDouble() < p; }
  // TPC-C 2.1.6 non-uniform random.
  uint64_t NURand(uint64_t a, uint64_t x, uint64_t y, uint64_t c) {
    return (((Uniform(0, a) | Uniform(x, y)) + c) % (y - x + 1)) + x;
  }
  std::string Alpha(size_t lo, size_t hi) {
    std::string s(Uniform(lo, hi), 'a');
    for (char& ch : s) ch = static_cast<char>('a' + Uniform(0, 25));
    return s;
  }

 private:
  uint64_t s_;
};

// YCSB's Zipfian generator (Gray et al., "Quickly generating billion-record
// synthetic databases"), with the YCSB "scrambled" step so hot keys are
// spread over the key space instead of clustered at its start.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
  }
  // Key in [0, n).
  uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(double(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    return Mix64(rank) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

// Order-preserving key: big-endian fixed-width fields and padded strings.
class Key {
 public:
  Key& U32(uint32_t v) {
    for (int i = 3; i >= 0; --i) buf_[len_++] = static_cast<char>(v >> (8 * i));
    return *this;
  }
  Key& Str(const char* s, size_t width) {
    const size_t n = strnlen(s, width);
    std::memcpy(buf_ + len_, s, n);
    std::memset(buf_ + len_ + n, 0, width - n);
    len_ += width;
    return *this;
  }
  ermia::Slice slice() const { return ermia::Slice(buf_, len_); }
  size_t size() const { return len_; }

 private:
  char buf_[64];
  size_t len_ = 0;
};

inline uint32_t DecodeU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return (uint32_t(u[0]) << 24) | (uint32_t(u[1]) << 16) |
         (uint32_t(u[2]) << 8) | uint32_t(u[3]);
}

template <typename T>
ermia::Slice RowSlice(const T& row) {
  return ermia::Slice(reinterpret_cast<const char*>(&row), sizeof(T));
}

template <typename T>
bool LoadRow(const ermia::Slice& raw, T* out) {
  if (raw.size() != sizeof(T)) return false;
  std::memcpy(out, raw.data(), sizeof(T));
  return true;
}

// Order-independent table digest: a wrapping sum and an xor of per-row
// hashes of (key, value), plus the row count.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t xr = 0;

  void Add(const ermia::Slice& key, const ermia::Slice& value) {
    const uint64_t h =
        Mix64(Fnv1a(key.data(), key.size()) ^
              Mix64(Fnv1a(value.data(), value.size()) + value.size()));
    ++rows;
    sum += h;
    xr ^= h;
  }
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum && xr == o.xr;
  }
};

}  // namespace ebench

#endif  // EBENCH_UTIL_H_
