#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace tfmcc {

/// MT19937-64 (Matsumoto & Nishimura): the same seeding and the same output
/// stream as `std::mt19937_64`, so every golden output drawn through it is
/// unchanged.  The state refill is branchless: the twist's conditional xor
/// of the matrix constant is `(0 - (y & 1)) & a`, where the conventional
/// `(y & 1) ? a : 0` is a data-dependent branch that mispredicts about half
/// the time.  Satisfies UniformRandomBitGenerator, so it can drive the
/// `std::*_distribution` templates too.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  result_type operator()() {
    if (next_ >= kN) refill();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLower = ~kUpper;

  static std::uint64_t twist(std::uint64_t hi, std::uint64_t lo,
                             std::uint64_t far) {
    const std::uint64_t y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  }

  void refill() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    for (; k < kN - 1; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
    next_ = 0;
  }

  std::array<std::uint64_t, kN> x_;
  std::size_t next_{kN};
};

/// Uniform integer in [lo, hi], inclusive, drawn from `gen` exactly as
/// libstdc++ 12's `std::uniform_int_distribution<std::int64_t>` draws it
/// from a 64-bit engine: Lemire's nearly divisionless multiply-and-reject
/// (a 64x64->128-bit product whose high word is the result), or one raw
/// draw when [lo, hi] spans all of int64.
inline std::int64_t uniform_int(Mt19937_64& gen, std::int64_t lo,
                                std::int64_t hi) {
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (range == ~std::uint64_t{0}) {
    return static_cast<std::int64_t>(gen() + static_cast<std::uint64_t>(lo));
  }
  const std::uint64_t span = range + 1;
  // The full 128-bit product of two 64-bit words, from 32-bit halves.
  auto multiply = [span](std::uint64_t x, std::uint64_t& low) {
    const std::uint64_t x_lo = x & 0xffffffffULL, x_hi = x >> 32;
    const std::uint64_t s_lo = span & 0xffffffffULL, s_hi = span >> 32;
    const std::uint64_t ll = x_lo * s_lo, lh = x_lo * s_hi;
    const std::uint64_t hl = x_hi * s_lo, hh = x_hi * s_hi;
    const std::uint64_t mid = (ll >> 32) + (lh & 0xffffffffULL) +
                              (hl & 0xffffffffULL);
    low = (mid << 32) | (ll & 0xffffffffULL);
    return hh + (lh >> 32) + (hl >> 32) + (mid >> 32);
  };
  std::uint64_t low = 0;
  std::uint64_t high = multiply(gen(), low);
  if (low < span) {
    const std::uint64_t threshold = (0 - span) % span;
    while (low < threshold) high = multiply(gen(), low);
  }
  return static_cast<std::int64_t>(high + static_cast<std::uint64_t>(lo));
}

/// Deterministic random-number stream.
///
/// Every stochastic component of the simulator draws from its own `Rng`
/// derived from a root seed and a stream id (`substream`).  This keeps
/// experiments reproducible run-to-run and — more importantly — makes the
/// randomness consumed by one component independent of how often another
/// component draws, so adding a flow to a scenario does not perturb the
/// loss pattern seen by existing flows.
///
/// The engine and every draw are written out here with libstdc++'s exact
/// algorithms, so they give the same values on any standard library: no
/// implementation-defined `std::*_distribution` is involved.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_{mix(seed)}, seed_{seed} {}

  /// Derive an independent child stream.  Deterministic in (seed, id).
  Rng substream(std::uint64_t stream_id) const {
    return Rng{mix(seed_ + 0x9e3779b97f4a7c15ULL * (stream_id + 1))};
  }

  std::uint64_t next_u64() { return gen_(); }

  /// Uniform in (0, 1] — never returns 0, safe as a log() argument.
  double uniform01() { return 1.0 - canonical(); }

  double uniform(double lo, double hi) { return canonical() * (hi - lo) + lo; }

  /// Uniform integer in [lo, hi], inclusive (see tfmcc::uniform_int).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical() < p;
  }

  /// Exponential with the given mean (inverse CDF with rate 1 / mean).
  double exponential(double mean) {
    const double lambda = 1.0 / mean;
    return -std::log(1.0 - canonical()) / lambda;
  }

 private:
  /// Uniform in [0, 1) from one 64-bit draw, as libstdc++'s
  /// `generate_canonical<double, 53>`: x / 2^64, which rounds to 1.0 for the
  /// top ~2^10 values of x and is then clamped to the largest double below 1.
  double canonical() {
    const double c = static_cast<double>(gen_()) * 0x1p-64;
    return c < 1.0 ? c : 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
  }

  /// splitmix64 finalizer: decorrelates nearby seeds.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  Mt19937_64 gen_;
  std::uint64_t seed_;
};

inline std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return tfmcc::uniform_int(gen_, lo, hi);
}

}  // namespace tfmcc
