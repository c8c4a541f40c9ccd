#include "vision/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.h"
#include "profiler/op_profiler.h"

namespace mapp::vision::ops {

PhaseBuilder::PhaseBuilder(std::string name)
{
    phase_.name = std::move(name);
}

PhaseBuilder&
PhaseBuilder::insts(isa::InstClass c, InstCount n)
{
    phase_.mix.add(c, n);
    return *this;
}

PhaseBuilder&
PhaseBuilder::read(Bytes b)
{
    phase_.bytesRead += b;
    return *this;
}

PhaseBuilder&
PhaseBuilder::write(Bytes b)
{
    phase_.bytesWritten += b;
    return *this;
}

PhaseBuilder&
PhaseBuilder::foot(Bytes b)
{
    phase_.footprint = b;
    return *this;
}

PhaseBuilder&
PhaseBuilder::par(double fraction)
{
    phase_.parallelFraction = fraction;
    return *this;
}

PhaseBuilder&
PhaseBuilder::staged(bool host_staged)
{
    phase_.hostStaged = host_staged;
    return *this;
}

PhaseBuilder&
PhaseBuilder::items(std::uint64_t n)
{
    phase_.workItems = std::max<std::uint64_t>(n, 1);
    return *this;
}

PhaseBuilder&
PhaseBuilder::loc(double locality)
{
    phase_.locality = locality;
    return *this;
}

PhaseBuilder&
PhaseBuilder::div(double divergence)
{
    phase_.branchDivergence = divergence;
    return *this;
}

void
PhaseBuilder::record()
{
    profiler::record(std::move(phase_));
}

namespace {

using isa::InstClass;

/** Bytes of a float. */
constexpr Bytes kF = sizeof(float);

/**
 * Outputs the interior loops compute at once. A fixed trip count lets
 * the compiler vectorize across neighbouring outputs while each output
 * keeps its own scalar accumulator and operation order.
 */
constexpr int kLanes = 8;

/** Reject a bad argument of primitive @p op, located at @p arg. */
[[noreturn]] void
rejectArgument(const char* op, const char* arg, const std::string& why,
               std::size_t row = 0)
{
    SourceContext where;
    where.file = std::string("ops::") + op;
    where.row = row;
    where.column = arg;
    raise(Error(ErrorCode::InvalidArgument, why, std::move(where)));
}

/**
 * out[x] = sum over t of src[t][x] * weight[t] for x in [0, n), each
 * sum accumulated from 0.0f in tap order: the float operations of a
 * per-pixel loop over the taps, run kLanes pixels at a time.
 */
void
tapRow(std::span<const float* const> src, std::span<const float> weight,
       float* out, int n)
{
    int x = 0;
    for (; x + kLanes <= n; x += kLanes) {
        float acc[kLanes] = {};
        for (std::size_t t = 0; t < src.size(); ++t) {
            const float* p = src[t] + x;
            const float w = weight[t];
#pragma GCC unroll kLanes
            for (int l = 0; l < kLanes; ++l)
                acc[l] += p[l] * w;
        }
        std::copy_n(acc, kLanes, out + x);
    }
    for (; x < n; ++x) {
        float acc = 0.0f;
        for (std::size_t t = 0; t < src.size(); ++t)
            acc += src[t][x] * weight[t];
        out[x] = acc;
    }
}

/** out[x] = pixel(x) for x in [0, n), kLanes outputs at a time. */
template <typename Pixel>
void
fillRow(float* out, int n, Pixel pixel)
{
    int x = 0;
    for (; x + kLanes <= n; x += kLanes) {
        float v[kLanes];
        for (int l = 0; l < kLanes; ++l)
            v[l] = pixel(x + l);
        std::copy_n(v, kLanes, out + x);
    }
    for (; x < n; ++x)
        out[x] = pixel(x);
}

/**
 * @p img widened by @p r replicated edge pixels on the left and right:
 * pixel (x + r, y) holds img.atClamped(x, y), so a horizontal tap at
 * offset -r..r reads it without a clamp.
 */
Image
padColumns(const Image& img, int r)
{
    const int w = img.width();
    Image out(w + 2 * r, img.height());
    if (img.pixels() == 0)
        return out;
    for (int y = 0; y < img.height(); ++y) {
        const float* src = img.row(y);
        float* dst = out.row(y);
        std::fill_n(dst, r, src[0]);
        std::copy_n(src, w, dst + r);
        std::fill_n(dst + r + w, r, src[w - 1]);
    }
    return out;
}

/** Row @p y of @p img with y clamped to the image. */
const float*
clampedRow(const Image& img, int y)
{
    return img.row(std::clamp(y, 0, img.height() - 1));
}

}  // namespace

Image
convolve2d(const Image& img, std::span<const float> kernel, int k)
{
    if (k < 1 || kernel.size() != static_cast<std::size_t>(k) *
                                      static_cast<std::size_t>(k))
        rejectArgument("convolve2d", "kernel",
                       "expected k*k = " + std::to_string(k) + "*" +
                           std::to_string(k) + " weights, got " +
                           std::to_string(kernel.size()));
    const int r = k / 2;
    const Image wide = padColumns(img, r);
    Image out(img.width(), img.height());
    std::vector<const float*> rows(kernel.size());
    for (int y = 0; y < img.height(); ++y) {
        for (int j = 0; j < k; ++j)
            for (int i = 0; i < k; ++i)
                rows[static_cast<std::size_t>(j * k + i)] =
                    clampedRow(wide, y + j - r) + i;
        tapRow(rows, kernel, out.row(y), img.width());
    }

    const auto px = static_cast<InstCount>(img.pixels());
    const auto taps = px * static_cast<InstCount>(k) *
                      static_cast<InstCount>(k);
    PhaseBuilder("convolve2d")
        .insts(InstClass::MemRead, taps)
        .insts(InstClass::FpAlu, taps)          // scalar tail mul-adds
        .insts(InstClass::Simd, taps / 2)       // vectorized portion
        .insts(InstClass::MemWrite, px)
        .insts(InstClass::IntAlu, px * 3)       // index arithmetic
        .insts(InstClass::Control, px + taps / 8)
        .insts(InstClass::Stack,
               static_cast<InstCount>(img.height()) * 2)
        .read(taps * kF)
        .write(px * kF)
        .foot(img.sizeBytes() + out.sizeBytes())
        .par(0.98)
        .items(px)
        .loc(0.8)
        .div(0.05)
        .record();
    return out;
}

Image
gaussianBlur(const Image& img, float sigma)
{
    // A zero 2 sigma^2 makes every weight NaN; the cap keeps the radius
    // (and the kernel) a sane int size.
    constexpr float kMaxSigma = 1e4f;
    if (!(sigma > 0.0f && sigma <= kMaxSigma &&
          2.0f * sigma * sigma > 0.0f)) {
        char got[32];
        std::snprintf(got, sizeof got, "%g", static_cast<double>(sigma));
        rejectArgument("gaussianBlur", "sigma",
                       std::string("sigma must be in (0, 1e4] with "
                                   "2 sigma^2 > 0, got ") +
                           got);
    }
    const int r = std::max(1, static_cast<int>(std::ceil(3.0f * sigma)));
    const int k = 2 * r + 1;
    std::vector<float> kernel(static_cast<std::size_t>(k));
    float sum = 0.0f;
    for (int i = 0; i < k; ++i) {
        const float d = static_cast<float>(i - r);
        kernel[static_cast<std::size_t>(i)] =
            std::exp(-d * d / (2.0f * sigma * sigma));
        sum += kernel[static_cast<std::size_t>(i)];
    }
    for (auto& v : kernel)
        v /= sum;

    // Horizontal then vertical pass.
    const Image wide = padColumns(img, r);
    Image tmp(img.width(), img.height());
    std::vector<const float*> rows(kernel.size());
    for (int y = 0; y < img.height(); ++y) {
        for (int i = 0; i < k; ++i)
            rows[static_cast<std::size_t>(i)] = wide.row(y) + i;
        tapRow(rows, kernel, tmp.row(y), img.width());
    }
    Image out(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y) {
        for (int i = 0; i < k; ++i)
            rows[static_cast<std::size_t>(i)] = clampedRow(tmp, y + i - r);
        tapRow(rows, kernel, out.row(y), img.width());
    }

    const auto px = static_cast<InstCount>(img.pixels());
    const auto taps = 2 * px * static_cast<InstCount>(k);
    PhaseBuilder("gaussian_blur")
        .insts(InstClass::MemRead, taps)
        .insts(InstClass::FpAlu, taps)
        .insts(InstClass::Simd, taps * 3 / 4)  // separable filters vectorize
        .insts(InstClass::MemWrite, 2 * px)
        .insts(InstClass::IntAlu, 2 * px * 2)
        .insts(InstClass::Control, 2 * px + taps / 8)
        .insts(InstClass::Stack, static_cast<InstCount>(img.height()) * 4)
        .read(taps * kF)
        .write(2 * px * kF)
        .foot(img.sizeBytes() * 3)
        .par(0.98)
        .items(px)
        .loc(0.85)
        .div(0.03)
        .record();
    return out;
}

void
sobel(const Image& img, Image& gx, Image& gy)
{
    gx = Image(img.width(), img.height());
    gy = Image(img.width(), img.height());
    // Padded column x + 1 is image column x, so taps x-1, x, x+1 read
    // columns x, x+1, x+2 of the above/current/below rows.
    const Image wide = padColumns(img, 1);
    for (int y = 0; y < img.height(); ++y) {
        const float* above = clampedRow(wide, y - 1);
        const float* row = wide.row(y);
        const float* below = clampedRow(wide, y + 1);
        fillRow(gx.row(y), img.width(), [&](int x) {
            return (above[x + 2] + 2 * row[x + 2] + below[x + 2]) -
                   (above[x] + 2 * row[x] + below[x]);
        });
        fillRow(gy.row(y), img.width(), [&](int x) {
            return (below[x] + 2 * below[x + 1] + below[x + 2]) -
                   (above[x] + 2 * above[x + 1] + above[x + 2]);
        });
    }
    const auto px = static_cast<InstCount>(img.pixels());
    PhaseBuilder("sobel")
        .insts(InstClass::MemRead, px * 8)
        .insts(InstClass::FpAlu, px * 10)
        .insts(InstClass::Simd, px * 4)
        .insts(InstClass::MemWrite, px * 2)
        .insts(InstClass::IntAlu, px * 3)
        .insts(InstClass::Control, px)
        .read(px * 8 * kF)
        .write(px * 2 * kF)
        .foot(img.sizeBytes() * 3)
        .par(0.98)
        .items(px)
        .loc(0.9)
        .div(0.03)
        .record();
}

void
gradientPolar(const Image& gx, const Image& gy, Image& mag, Image& orient)
{
    mag = Image(gx.width(), gx.height());
    orient = Image(gx.width(), gx.height());
    for (int y = 0; y < gx.height(); ++y) {
        for (int x = 0; x < gx.width(); ++x) {
            const float dx = gx.at(x, y);
            const float dy = gy.at(x, y);
            mag.at(x, y) = std::sqrt(dx * dx + dy * dy);
            orient.at(x, y) = std::atan2(dy, dx);
        }
    }
    const auto px = static_cast<InstCount>(gx.pixels());
    PhaseBuilder("gradient_polar")
        .insts(InstClass::MemRead, px * 2)
        .insts(InstClass::FpAlu, px * 14)  // sqrt + atan2 expansions
        .insts(InstClass::MemWrite, px * 2)
        .insts(InstClass::IntAlu, px * 2)
        .insts(InstClass::Control, px)
        .read(px * 2 * kF)
        .write(px * 2 * kF)
        .foot(gx.sizeBytes() * 4)
        .par(0.98)
        .items(px)
        .loc(0.9)
        .div(0.02)
        .record();
}

Image
downsample2x(const Image& img)
{
    if (img.pixels() == 0)
        rejectArgument("downsample2x", "img", "empty image");
    const int w = std::max(img.width() / 2, 1);
    const int h = std::max(img.height() / 2, 1);
    Image out(w, h);
    // Pixel 2x+1 (row 2y+1) lies inside the image unless the image is a
    // single column (row), where the clamp folds it onto 2x (2y).
    const int dx = img.width() > 1 ? 1 : 0;
    const int dy = img.height() > 1 ? 1 : 0;
    for (int y = 0; y < h; ++y) {
        const float* r0 = img.row(2 * y);
        const float* r1 = img.row(2 * y + dy);
        fillRow(out.row(y), w, [&](int x) {
            return (r0[2 * x] + r0[2 * x + dx] + r1[2 * x] +
                    r1[2 * x + dx]) * 0.25f;
        });
    }

    const auto px = static_cast<InstCount>(out.pixels());
    PhaseBuilder("downsample2x")
        .insts(InstClass::MemRead, px * 4)
        .insts(InstClass::FpAlu, px * 4)
        .insts(InstClass::Simd, px)
        .insts(InstClass::MemWrite, px)
        .insts(InstClass::IntAlu, px * 4)
        .insts(InstClass::Shift, px * 2)  // index doubling
        .insts(InstClass::Control, px)
        .read(px * 4 * kF)
        .write(px * kF)
        .foot(img.sizeBytes() + out.sizeBytes())
        .par(0.98)
        .items(px)
        .loc(0.7)
        .div(0.02)
        .record();
    return out;
}

Image
resizeBilinear(const Image& img, int w, int h)
{
    if (img.pixels() == 0 || w < 1 || h < 1)
        rejectArgument("resizeBilinear", "img",
                       "cannot resize " + std::to_string(img.width()) +
                           "x" + std::to_string(img.height()) + " to " +
                           std::to_string(w) + "x" + std::to_string(h));
    Image out(w, h);
    const float sx =
        static_cast<float>(img.width()) / static_cast<float>(w);
    const float sy =
        static_cast<float>(img.height()) / static_cast<float>(h);
    // Each output column's source columns and weight, clamped once.
    std::vector<int> col0(static_cast<std::size_t>(w));
    std::vector<int> col1(static_cast<std::size_t>(w));
    std::vector<float> wx(static_cast<std::size_t>(w));
    for (int x = 0; x < w; ++x) {
        const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
        const int x0 = static_cast<int>(std::floor(fx));
        const auto c = static_cast<std::size_t>(x);
        wx[c] = fx - static_cast<float>(x0);
        col0[c] = std::clamp(x0, 0, img.width() - 1);
        col1[c] = std::clamp(x0 + 1, 0, img.width() - 1);
    }
    for (int y = 0; y < h; ++y) {
        const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
        const int y0 = static_cast<int>(std::floor(fy));
        const float ay = fy - static_cast<float>(y0);
        const float* r0 = clampedRow(img, y0);
        const float* r1 = clampedRow(img, y0 + 1);
        float* dst = out.row(y);
        for (std::size_t c = 0; c < col0.size(); ++c) {
            const float ax = wx[c];
            const float top = r0[col0[c]] * (1 - ax) + r0[col1[c]] * ax;
            const float bot = r1[col0[c]] * (1 - ax) + r1[col1[c]] * ax;
            dst[c] = top * (1 - ay) + bot * ay;
        }
    }
    const auto px = static_cast<InstCount>(out.pixels());
    PhaseBuilder("resize_bilinear")
        .insts(InstClass::MemRead, px * 4)
        .insts(InstClass::FpAlu, px * 10)
        .insts(InstClass::MemWrite, px)
        .insts(InstClass::IntAlu, px * 6)
        .insts(InstClass::Control, px)
        .read(px * 4 * kF)
        .write(px * kF)
        .foot(img.sizeBytes() + out.sizeBytes())
        .par(0.98)
        .items(px)
        .loc(0.6)
        .div(0.05)
        .record();
    return out;
}

IntegralImage
integral(const Image& img)
{
    IntegralImage ii(img);
    const auto px = static_cast<InstCount>(img.pixels());
    PhaseBuilder("integral_image")
        .insts(InstClass::MemRead, px * 2)
        .insts(InstClass::MemWrite, px)
        .insts(InstClass::IntAlu, px * 3)
        .insts(InstClass::FpAlu, px)
        .insts(InstClass::Control, px)
        .insts(InstClass::Stack, static_cast<InstCount>(img.height()))
        .read(px * 2 * kF)
        .write(px * static_cast<Bytes>(sizeof(double)))
        .foot(img.sizeBytes() + ii.sizeBytes())
        .par(0.6)  // prefix sums parallelize imperfectly
        .items(px)
        .loc(0.9)
        .div(0.02)
        .record();
    return ii;
}

std::vector<double>
histogram(std::span<const float> values, int bins, float lo, float hi)
{
    std::vector<double> out(static_cast<std::size_t>(bins), 0.0);
    const float width = (hi - lo) / static_cast<float>(bins);
    for (float v : values) {
        int b = static_cast<int>((v - lo) / width);
        b = std::clamp(b, 0, bins - 1);
        out[static_cast<std::size_t>(b)] += 1.0;
    }
    const auto n = static_cast<InstCount>(values.size());
    PhaseBuilder("histogram")
        .insts(InstClass::MemRead, n * 2)
        .insts(InstClass::MemWrite, n)
        .insts(InstClass::IntAlu, n * 3)
        .insts(InstClass::FpAlu, n * 2)
        .insts(InstClass::Control, n * 2)
        .read(n * kF)
        .write(n * static_cast<Bytes>(sizeof(double)) / 4)
        .foot(static_cast<Bytes>(values.size()) * kF)
        .par(0.7)  // bin updates contend
        .items(n)
        .loc(0.95)
        .div(0.3)
        .record();
    return out;
}

std::vector<std::pair<int, int>>
nonMaxSuppress(const Image& response, float threshold, int radius)
{
    std::vector<std::pair<int, int>> maxima;
    InstCount comparisons = 0;
    for (int y = 0; y < response.height(); ++y) {
        for (int x = 0; x < response.width(); ++x) {
            const float v = response.at(x, y);
            ++comparisons;
            if (v <= threshold)
                continue;
            bool isMax = true;
            for (int j = -radius; j <= radius && isMax; ++j) {
                for (int i = -radius; i <= radius; ++i) {
                    if (i == 0 && j == 0)
                        continue;
                    ++comparisons;
                    if (response.atClamped(x + i, y + j) > v) {
                        isMax = false;
                        break;
                    }
                }
            }
            if (isMax)
                maxima.emplace_back(x, y);
        }
    }
    const auto px = static_cast<InstCount>(response.pixels());
    PhaseBuilder("non_max_suppress")
        .insts(InstClass::MemRead, comparisons)
        .insts(InstClass::FpAlu, comparisons)
        .insts(InstClass::Control, comparisons + px)
        .insts(InstClass::IntAlu, px * 2)
        .insts(InstClass::MemWrite,
               static_cast<InstCount>(maxima.size()) * 2)
        .read(comparisons * kF)
        .write(static_cast<Bytes>(maxima.size()) * 2 *
               static_cast<Bytes>(sizeof(int)))
        .foot(response.sizeBytes())
        .par(0.95)
        .items(px)
        .loc(0.85)
        .div(0.6)  // data-dependent rejection
        .record();
    return maxima;
}

double
dot(std::span<const float> a, std::span<const float> b)
{
    const std::size_t n = std::min(a.size(), b.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);

    const auto in = static_cast<InstCount>(n);
    PhaseBuilder("dot")
        .insts(InstClass::MemRead, in * 2)
        .insts(InstClass::Simd, in * 3 / 2)  // fused multiply-add lanes
        .insts(InstClass::FpAlu, in / 4)
        .insts(InstClass::IntAlu, in / 4)
        .insts(InstClass::Control, in / 8 + 1)
        .read(in * 2 * kF)
        .foot(static_cast<Bytes>(n) * 2 * kF)
        .par(0.9)
        .items(in)
        .loc(0.5)
        .div(0.02)
        .record();
    return acc;
}

std::vector<double>
distanceMatrix(const std::vector<Descriptor>& a,
               const std::vector<Descriptor>& b)
{
    const std::size_t dim = a.empty() ? 0 : a.front().size();
    auto requireDim = [&](const std::vector<Descriptor>& rows,
                          const char* name) {
        for (std::size_t i = 0; i < rows.size(); ++i)
            if (rows[i].size() != dim)
                rejectArgument("distanceMatrix", name,
                               "descriptor has " +
                                   std::to_string(rows[i].size()) +
                                   " values, expected " +
                                   std::to_string(dim),
                               i + 1);
    };
    requireDim(a, "a");
    if (!a.empty())
        requireDim(b, "b");
    // No pairs, no work: there is no phase to record (a phase with an
    // empty mix fails validation).
    if (a.empty() || b.empty())
        return {};

    // b in panels of kLanes rows, converted to double once and stored
    // dimension-major, so each step over d reads kLanes neighbours. The
    // last panel is zero-filled; its spare lanes are computed, not
    // stored.
    const std::size_t panels = (b.size() + kLanes - 1) / kLanes;
    const std::size_t panelSize = dim * kLanes;
    std::vector<double> bPanels(panels * panelSize, 0.0);
    for (std::size_t j = 0; j < b.size(); ++j)
        for (std::size_t d = 0; d < dim; ++d)
            bPanels[j / kLanes * panelSize + d * kLanes + j % kLanes] =
                static_cast<double>(b[j][d]);

    std::vector<double> out(a.size() * b.size(), 0.0);
    std::vector<double> row(dim);
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::copy(a[i].begin(), a[i].end(), row.begin());
        for (std::size_t p = 0; p < panels; ++p) {
            const double* panel = bPanels.data() + p * panelSize;
            double acc[kLanes] = {};
            for (std::size_t d = 0; d < dim; ++d) {
                const double ad = row[d];
#pragma GCC unroll kLanes
                for (int l = 0; l < kLanes; ++l) {
                    const double diff = ad - panel[d * kLanes + l];
                    acc[l] += diff * diff;
                }
            }
            const std::size_t j0 = p * kLanes;
            std::copy_n(acc, std::min<std::size_t>(kLanes, b.size() - j0),
                        out.begin() + static_cast<std::ptrdiff_t>(
                                          i * b.size() + j0));
        }
    }
    const auto ops = static_cast<InstCount>(a.size()) *
                     static_cast<InstCount>(b.size()) *
                     static_cast<InstCount>(std::max<std::size_t>(dim, 1));
    const auto pairs = static_cast<InstCount>(a.size()) *
                       static_cast<InstCount>(b.size());
    PhaseBuilder("distance_matrix")
        .insts(InstClass::MemRead, ops * 2)
        .insts(InstClass::Simd, ops * 2)
        .insts(InstClass::FpAlu, ops / 2)
        .insts(InstClass::MemWrite, pairs)
        .insts(InstClass::IntAlu, pairs * 2)
        .insts(InstClass::Control, pairs + ops / 8)
        .read(ops * 2 * kF)
        .write(pairs * static_cast<Bytes>(sizeof(double)))
        .foot((static_cast<Bytes>(a.size()) + static_cast<Bytes>(b.size())) *
                  static_cast<Bytes>(dim) * kF +
              static_cast<Bytes>(out.size()) *
                  static_cast<Bytes>(sizeof(double)))
        .par(0.97)
        .items(pairs)
        .loc(0.3)  // streaming through both sets
        .div(0.02)
        .record();
    return out;
}

std::vector<int>
topKSmallest(std::span<const double> values, int k)
{
    std::vector<int> idx;
    std::vector<bool> used(values.size(), false);
    InstCount scans = 0;
    for (int sel = 0; sel < k && sel < static_cast<int>(values.size());
         ++sel) {
        double best = std::numeric_limits<double>::infinity();
        int bestIdx = -1;
        for (std::size_t i = 0; i < values.size(); ++i) {
            ++scans;
            if (!used[i] && values[i] < best) {
                best = values[i];
                bestIdx = static_cast<int>(i);
            }
        }
        if (bestIdx < 0)
            break;
        used[static_cast<std::size_t>(bestIdx)] = true;
        idx.push_back(bestIdx);
    }
    PhaseBuilder("top_k_select")
        .insts(InstClass::MemRead, scans)
        .insts(InstClass::FpAlu, scans)
        .insts(InstClass::Control, scans * 2)
        .insts(InstClass::IntAlu, scans)
        .insts(InstClass::MemWrite, static_cast<InstCount>(idx.size()))
        .read(scans * static_cast<Bytes>(sizeof(double)))
        .foot(static_cast<Bytes>(values.size()) *
              static_cast<Bytes>(sizeof(double)))
        .par(0.8)
        .items(static_cast<std::uint64_t>(values.size()))
        .loc(0.7)
        .div(0.5)
        .record();
    return idx;
}

int
hammingDistance(const BinaryDescriptor& a, const BinaryDescriptor& b)
{
    const std::size_t n = std::min(a.size(), b.size());
    int dist = 0;
    for (std::size_t i = 0; i < n; ++i)
        dist += std::popcount(
            static_cast<unsigned>(a[i] ^ b[i]));

    const auto in = static_cast<InstCount>(n);
    PhaseBuilder("hamming")
        .insts(InstClass::MemRead, in * 2)
        .insts(InstClass::IntAlu, in * 2)
        .insts(InstClass::Shift, in)
        .insts(InstClass::Control, in / 4 + 1)
        .read(in * 2)
        .foot(static_cast<Bytes>(n) * 2)
        .par(0.9)
        .items(in)
        .loc(0.6)
        .div(0.05)
        .record();
    return dist;
}

Image
copyImage(const Image& img)
{
    Image out = img;
    const auto px = static_cast<InstCount>(img.pixels());
    PhaseBuilder("image_copy")
        .insts(InstClass::String, px / 4)  // rep-movs style copy
        .insts(InstClass::MemRead, px / 8)
        .insts(InstClass::MemWrite, px / 8)
        .insts(InstClass::Stack, 8)
        .insts(InstClass::IntAlu, px / 16 + 1)
        .insts(InstClass::Control, px / 64 + 1)
        .read(img.sizeBytes())
        .write(img.sizeBytes())
        .foot(img.sizeBytes() * 2)
        .par(0.5)
        .items(px)
        .loc(0.2)
        .div(0.01)
        .staged()
        .record();
    return out;
}

}  // namespace mapp::vision::ops
