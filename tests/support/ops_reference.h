/**
 * @file
 * Reference transcriptions of the vision primitives as plain clamped
 * per-pixel loops: every tap read through Image::atClamped, one scalar
 * accumulator per output value. They are the oracle the optimized
 * ops:: implementations must match bit for bit (tests/test_ops_exact.cc);
 * they compute values only and record no profiler phase.
 */

#ifndef MAPP_TESTS_SUPPORT_OPS_REFERENCE_H
#define MAPP_TESTS_SUPPORT_OPS_REFERENCE_H

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "vision/image.h"

namespace mapp::vision::reference {

inline Image
convolve2d(const Image& img, std::span<const float> kernel, int k)
{
    const int r = k / 2;
    Image out(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            float acc = 0.0f;
            for (int j = 0; j < k; ++j)
                for (int i = 0; i < k; ++i)
                    acc += img.atClamped(x + i - r, y + j - r) *
                           kernel[static_cast<std::size_t>(j * k + i)];
            out.at(x, y) = acc;
        }
    }
    return out;
}

inline Image
gaussianBlur(const Image& img, float sigma)
{
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

    Image tmp(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x) {
            float acc = 0.0f;
            for (int i = 0; i < k; ++i)
                acc += img.atClamped(x + i - r, y) *
                       kernel[static_cast<std::size_t>(i)];
            tmp.at(x, y) = acc;
        }
    Image out(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x) {
            float acc = 0.0f;
            for (int i = 0; i < k; ++i)
                acc += tmp.atClamped(x, y + i - r) *
                       kernel[static_cast<std::size_t>(i)];
            out.at(x, y) = acc;
        }
    return out;
}

inline void
sobel(const Image& img, Image& gx, Image& gy)
{
    gx = Image(img.width(), img.height());
    gy = Image(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            const float tl = img.atClamped(x - 1, y - 1);
            const float t = img.atClamped(x, y - 1);
            const float tr = img.atClamped(x + 1, y - 1);
            const float l = img.atClamped(x - 1, y);
            const float r = img.atClamped(x + 1, y);
            const float bl = img.atClamped(x - 1, y + 1);
            const float b = img.atClamped(x, y + 1);
            const float br = img.atClamped(x + 1, y + 1);
            gx.at(x, y) = (tr + 2 * r + br) - (tl + 2 * l + bl);
            gy.at(x, y) = (bl + 2 * b + br) - (tl + 2 * t + tr);
        }
    }
}

inline Image
downsample2x(const Image& img)
{
    const int w = std::max(img.width() / 2, 1);
    const int h = std::max(img.height() / 2, 1);
    Image out(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            out.at(x, y) =
                (img.atClamped(2 * x, 2 * y) +
                 img.atClamped(2 * x + 1, 2 * y) +
                 img.atClamped(2 * x, 2 * y + 1) +
                 img.atClamped(2 * x + 1, 2 * y + 1)) * 0.25f;
    return out;
}

inline Image
resizeBilinear(const Image& img, int w, int h)
{
    Image out(w, h);
    const float sx =
        static_cast<float>(img.width()) / static_cast<float>(w);
    const float sy =
        static_cast<float>(img.height()) / static_cast<float>(h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
            const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
            const int x0 = static_cast<int>(std::floor(fx));
            const int y0 = static_cast<int>(std::floor(fy));
            const float ax = fx - static_cast<float>(x0);
            const float ay = fy - static_cast<float>(y0);
            const float top = img.atClamped(x0, y0) * (1 - ax) +
                              img.atClamped(x0 + 1, y0) * ax;
            const float bot = img.atClamped(x0, y0 + 1) * (1 - ax) +
                              img.atClamped(x0 + 1, y0 + 1) * ax;
            out.at(x, y) = top * (1 - ay) + bot * ay;
        }
    }
    return out;
}

inline std::vector<double>
distanceMatrix(const std::vector<Descriptor>& a,
               const std::vector<Descriptor>& b)
{
    const std::size_t dim = a.empty() ? 0 : a.front().size();
    std::vector<double> out(a.size() * b.size(), 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = 0; j < b.size(); ++j) {
            double acc = 0.0;
            for (std::size_t d = 0; d < dim; ++d) {
                const double diff = static_cast<double>(a[i][d]) -
                                    static_cast<double>(b[j][d]);
                acc += diff * diff;
            }
            out[i * b.size() + j] = acc;
        }
    }
    return out;
}

}  // namespace mapp::vision::reference

#endif  // MAPP_TESTS_SUPPORT_OPS_REFERENCE_H
