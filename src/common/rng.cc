#include "common/rng.h"

#include <cmath>

namespace mapp {

namespace {

/** splitmix64 step used to expand the user seed into generator state. */
std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto& word : state_)
        word = splitmix64(s);
    // Avoid the all-zero state, which is a fixed point of xoshiro.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
        state_[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0)  // full 64-bit range requested
        return static_cast<std::int64_t>(next());
    // Rejection-free modulo is fine here: span is tiny vs 2^64, the bias
    // is immeasurable for simulation purposes.
    return lo + static_cast<std::int64_t>(next() % span);
}

double
Rng::normal()
{
    if (hasSpareNormal_) {
        hasSpareNormal_ = false;
        return spareNormal_;
    }
    // Box-Muller; u must be > 0 for the log.
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 0.0);
    const double v = uniform();
    const double r = std::sqrt(-2.0 * std::log(u));
    const double theta = 2.0 * M_PI * v;
    spareNormal_ = r * std::sin(theta);
    hasSpareNormal_ = true;
    return r * std::cos(theta);
}

}  // namespace mapp
