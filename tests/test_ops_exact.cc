/**
 * @file
 * Bit-exactness of the optimized vision primitives: every output of
 * ops::convolve2d, gaussianBlur, sobel, downsample2x, resizeBilinear
 * and distanceMatrix must equal, byte for byte, the plain clamped
 * per-pixel loops of tests/support/ops_reference.h on a seeded fuzz of
 * shapes (1x1, single rows and columns, widths around the kernel size
 * and the lane width, odd sizes, 192x192). Also checks the located
 * precondition errors of the same primitives. Label `vision`.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "support/ops_reference.h"
#include "vision/ops.h"

namespace {

using namespace mapp;
using namespace mapp::vision;

/** Random pixels in [-300, 300), with exact +0 and -0 sprinkled in. */
Image
fuzzImage(int w, int h, Rng& rng)
{
    Image img(w, h);
    for (auto& v : img.data()) {
        const double u = rng.uniform(0.0, 1.0);
        v = u < 0.05   ? 0.0f
            : u < 0.1  ? -0.0f
                       : static_cast<float>(rng.uniform(-300.0, 300.0));
    }
    return img;
}

/** Same length and the same bytes (memcmp: -0 != +0, NaN == NaN). */
template <typename T>
bool
sameBytes(const std::vector<T>& got, const std::vector<T>& want)
{
    return got.size() == want.size() &&
           (want.empty() || std::memcmp(got.data(), want.data(),
                                        want.size() * sizeof(T)) == 0);
}

/** Same shape and the same bytes in every pixel. */
void
expectSameBytes(const Image& got, const Image& want, const std::string& what)
{
    ASSERT_EQ(got.width(), want.width()) << what;
    ASSERT_EQ(got.height(), want.height()) << what;
    EXPECT_TRUE(sameBytes(got.data(), want.data())) << what;
}

std::string
shapeName(int w, int h)
{
    return std::to_string(w) + "x" + std::to_string(h);
}

/**
 * Shapes around a filter of radius @p r: 1x1, 1xN, Nx1, widths below
 * the kernel and equal to 2r and 2r+1, widths around the 8-pixel lane
 * block, odd sizes, and 192x192.
 */
std::vector<std::pair<int, int>>
shapesFor(int r)
{
    std::vector<std::pair<int, int>> shapes = {
        {1, 1}, {1, 37}, {37, 1}, {13, 11}, {23, 9}, {7, 8},
        {8, 8}, {9, 5},  {15, 3}, {16, 2},  {17, 17}, {192, 192},
    };
    for (int w : {r, 2 * r, 2 * r + 1, 2 * r + 2}) {
        if (w < 1)
            continue;
        shapes.emplace_back(w, 9);
        shapes.emplace_back(9, w);
        shapes.emplace_back(w, w);
    }
    return shapes;
}

TEST(OpsExact, GaussianBlurMatchesReference)
{
    Rng rng(101);
    for (float sigma : {0.5f, 0.8f, 1.0f, 1.2263f, 1.6f, 2.0159f, 2.5f,
                        3.2f, 4.0f, 5.0f, 6.0f}) {
        const int r =
            std::max(1, static_cast<int>(std::ceil(3.0f * sigma)));
        for (auto [w, h] : shapesFor(r)) {
            const Image img = fuzzImage(w, h, rng);
            expectSameBytes(ops::gaussianBlur(img, sigma),
                            reference::gaussianBlur(img, sigma),
                            "sigma " + std::to_string(sigma) + " " +
                                shapeName(w, h));
        }
    }
}

TEST(OpsExact, Convolve2dMatchesReference)
{
    Rng rng(202);
    for (int k : {1, 3, 5, 7}) {
        std::vector<float> kernel(static_cast<std::size_t>(k * k));
        for (auto& v : kernel)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (auto [w, h] : shapesFor(k / 2)) {
            const Image img = fuzzImage(w, h, rng);
            expectSameBytes(ops::convolve2d(img, kernel, k),
                            reference::convolve2d(img, kernel, k),
                            "k " + std::to_string(k) + " " +
                                shapeName(w, h));
        }
    }
}

TEST(OpsExact, SobelMatchesReference)
{
    Rng rng(303);
    for (auto [w, h] : shapesFor(1)) {
        const Image img = fuzzImage(w, h, rng);
        Image gx, gy, rx, ry;
        ops::sobel(img, gx, gy);
        reference::sobel(img, rx, ry);
        expectSameBytes(gx, rx, "gx " + shapeName(w, h));
        expectSameBytes(gy, ry, "gy " + shapeName(w, h));
    }
}

TEST(OpsExact, Downsample2xMatchesReference)
{
    Rng rng(404);
    for (auto [w, h] : shapesFor(2)) {
        const Image img = fuzzImage(w, h, rng);
        expectSameBytes(ops::downsample2x(img), reference::downsample2x(img),
                        shapeName(w, h));
    }
}

TEST(OpsExact, ResizeBilinearMatchesReference)
{
    Rng rng(505);
    const std::vector<std::pair<int, int>> targets = {
        {1, 1}, {32, 32}, {7, 3}, {3, 7}, {17, 40}, {400, 2}};
    for (auto [w, h] : shapesFor(2)) {
        const Image img = fuzzImage(w, h, rng);
        for (auto [tw, th] : targets)
            expectSameBytes(ops::resizeBilinear(img, tw, th),
                            reference::resizeBilinear(img, tw, th),
                            shapeName(w, h) + " -> " + shapeName(tw, th));
    }
}

TEST(OpsExact, DistanceMatrixMatchesReference)
{
    Rng rng(606);
    auto rows = [&](std::size_t n, std::size_t dim) {
        std::vector<Descriptor> out(n, Descriptor(dim));
        for (auto& d : out)
            for (auto& v : d)
                v = static_cast<float>(rng.uniform(-60.0, 60.0));
        return out;
    };
    for (std::size_t dim : {1u, 144u})
        for (std::size_t nb : {0u, 1u, 7u, 8u, 9u, 401u})
            for (std::size_t na : {1u, 3u, 17u}) {
                const auto a = rows(na, dim);
                const auto b = rows(nb, dim);
                EXPECT_TRUE(sameBytes(ops::distanceMatrix(a, b),
                                      reference::distanceMatrix(a, b)))
                    << "dim " << dim << " a " << na << " b " << nb;
            }
}

/** Run @p fn, expecting an InvalidArgument located at ops::op. */
template <typename Fn>
Error
expectRejected(Fn&& fn, const std::string& op, const std::string& arg)
{
    try {
        fn();
    } catch (const InputError& e) {
        EXPECT_EQ(e.error().code(), ErrorCode::InvalidArgument);
        EXPECT_EQ(e.error().context().file, "ops::" + op);
        EXPECT_EQ(e.error().context().column, arg);
        return e.error();
    }
    ADD_FAILURE() << op << " accepted a bad " << arg;
    return Error(ErrorCode::InvalidArgument, "");
}

TEST(OpsExact, Convolve2dRejectsKernelOfWrongSize)
{
    const Image img(6, 6, 1.0f);
    const std::vector<float> eight(8, 0.125f);
    const Error e = expectRejected(
        [&] { ops::convolve2d(img, eight, 3); }, "convolve2d", "kernel");
    EXPECT_NE(e.message().find("got 8"), std::string::npos) << e.toString();
    expectRejected([&] { ops::convolve2d(img, {}, 0); }, "convolve2d",
                   "kernel");
}

TEST(OpsExact, GaussianBlurRejectsDegenerateSigma)
{
    const Image img(6, 6, 1.0f);
    for (float sigma : {0.0f, -1.0f, 1e-30f, 1e5f,
                        std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity()})
        expectRejected([&] { ops::gaussianBlur(img, sigma); },
                       "gaussianBlur", "sigma");
    const Error e = expectRejected([&] { ops::gaussianBlur(img, 1e-30f); },
                                   "gaussianBlur", "sigma");
    EXPECT_NE(e.message().find("got 1e-30"), std::string::npos)
        << e.toString();
}

TEST(OpsExact, DistanceMatrixRejectsMixedDescriptorLengths)
{
    const std::vector<Descriptor> a = {Descriptor(4), Descriptor(4)};
    const std::vector<Descriptor> shortB = {Descriptor(4), Descriptor(3)};
    Error e = expectRejected([&] { ops::distanceMatrix(a, shortB); },
                             "distanceMatrix", "b");
    EXPECT_EQ(e.context().row, 2u);
    const std::vector<Descriptor> mixedA = {Descriptor(4), Descriptor(5)};
    e = expectRejected([&] { ops::distanceMatrix(mixedA, a); },
                       "distanceMatrix", "a");
    EXPECT_EQ(e.context().row, 2u);
    // With no query rows nothing is read, so b is not checked.
    EXPECT_TRUE(ops::distanceMatrix({}, shortB).empty());
}

TEST(OpsExact, ResamplersRejectEmptyImages)
{
    expectRejected([] { ops::downsample2x(Image()); }, "downsample2x",
                   "img");
    expectRejected([] { ops::resizeBilinear(Image(), 4, 4); },
                   "resizeBilinear", "img");
    expectRejected([] { ops::resizeBilinear(Image(4, 4), 0, 4); },
                   "resizeBilinear", "img");
}

}  // namespace
