/**
 * @file
 * Instrumented image/linear-algebra primitives.
 *
 * Every function here performs its real computation on real data AND
 * tallies the dynamic instruction classes, memory traffic and behavioural
 * attributes of the work it just did, recording them as one KernelPhase
 * into the active profiler session (a no-op without a session). The
 * counts are derived from the actual loop trip counts of the executed
 * code, so data-dependent work (e.g. early-exit tests, detected
 * keypoints) shows up in the mix exactly as PIN would see it.
 *
 * The filters, resamplers and distanceMatrix read edge-padded rows
 * instead of clamping each tap, and compute several neighbouring
 * outputs per loop so the compiler can vectorize them. Each output
 * keeps the operands and operation order of a plain per-pixel clamped
 * loop, so results (and hence traces) are bit-identical to it;
 * tests/test_ops_exact.cc pins this against reference loops.
 */

#ifndef MAPP_VISION_OPS_H
#define MAPP_VISION_OPS_H

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "isa/kernel_phase.h"
#include "vision/image.h"

namespace mapp::vision::ops {

/**
 * Fluent builder used by instrumented primitives to assemble and record
 * a KernelPhase. All setters return *this for chaining; record() emits
 * the phase to the active profiler session.
 */
class PhaseBuilder
{
  public:
    explicit PhaseBuilder(std::string name);

    PhaseBuilder& insts(isa::InstClass c, InstCount n);
    PhaseBuilder& read(Bytes b);
    PhaseBuilder& write(Bytes b);
    PhaseBuilder& foot(Bytes b);
    PhaseBuilder& par(double fraction);
    PhaseBuilder& staged(bool host_staged = true);
    PhaseBuilder& items(std::uint64_t n);
    PhaseBuilder& loc(double locality);
    PhaseBuilder& div(double divergence);

    /** Validate and send the phase to the profiler. */
    void record();

  private:
    isa::KernelPhase phase_;
};

/**
 * Dense 2-D convolution with a k x k kernel (border clamped).
 * @throws InputError (invalid-argument) unless k >= 1 and kernel holds
 *         exactly k*k weights.
 */
Image convolve2d(const Image& img, std::span<const float> kernel, int k);

/**
 * Separable Gaussian blur with the given sigma (radius = ceil(3 sigma)).
 * @throws InputError (invalid-argument) unless sigma is in (0, 1e4] and
 *         2 sigma^2 does not underflow to 0.
 */
Image gaussianBlur(const Image& img, float sigma);

/** 3x3 Sobel gradients; writes gx and gy. */
void sobel(const Image& img, Image& gx, Image& gy);

/** Gradient magnitude and orientation (radians) from gx/gy. */
void gradientPolar(const Image& gx, const Image& gy, Image& mag,
                   Image& orient);

/**
 * Halve both dimensions by 2x2 averaging.
 * @throws InputError (invalid-argument) on an empty image.
 */
Image downsample2x(const Image& img);

/**
 * Bilinear resize to (w, h).
 * @throws InputError (invalid-argument) on an empty image or a target
 *         size below 1x1.
 */
Image resizeBilinear(const Image& img, int w, int h);

/** Instrumented integral-image construction. */
IntegralImage integral(const Image& img);

/**
 * 2-D non-maximum suppression on a response map: returns (x, y) of local
 * maxima above @p threshold within a (2r+1)^2 neighborhood.
 */
std::vector<std::pair<int, int>> nonMaxSuppress(const Image& response,
                                                float threshold, int radius);

/**
 * All-pairs squared Euclidean distances between row sets; result is
 * a.size() x b.size(), row-major. Streaming, memory-bound mix. An empty
 * set gives an empty result and records no phase.
 * @throws InputError (invalid-argument, located at the 1-based row of
 *         a or b) when a descriptor's length differs from a's first.
 */
std::vector<double> distanceMatrix(
    const std::vector<Descriptor>& a, const std::vector<Descriptor>& b);

/**
 * Instrumented buffer copy (string-class mix): models the memcpy-style
 * staging every benchmark does when loading a batch.
 */
Image copyImage(const Image& img);

}  // namespace mapp::vision::ops

#endif  // MAPP_VISION_OPS_H
