/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in MAPP (synthetic image generation, random
 * forest bootstraps, random bag mixes) draws from an explicitly seeded
 * Rng so that experiments are bit-reproducible across runs and
 * platforms. The generator is xoshiro256++, which is small, fast and
 * has no observable statistical defects for our use cases.
 */

#ifndef MAPP_COMMON_RNG_H
#define MAPP_COMMON_RNG_H

#include <array>
#include <cstdint>

namespace mapp {

/**
 * A deterministic xoshiro256++ pseudo-random generator.
 *
 * Unlike std::mt19937 + std::uniform_*_distribution, every method here is
 * fully specified by this implementation, so results do not vary across
 * standard-library vendors.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal deviate (Box-Muller, deterministic). */
    double normal();

  private:
    std::array<std::uint64_t, 4> state_;
    bool hasSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

}  // namespace mapp

#endif  // MAPP_COMMON_RNG_H
