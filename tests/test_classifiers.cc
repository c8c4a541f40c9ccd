/** @file Functional tests for HoG, SVM, KNN, ObjRec and FaceDet. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/log.h"
#include "common/rng.h"
#include "vision/facedet.h"
#include "vision/hog.h"
#include "vision/knn.h"
#include "vision/objrec.h"
#include "vision/svm.h"

namespace {

using namespace mapp;
using namespace mapp::vision;

TEST(Hog, DescriptorSizeMatchesGeometry)
{
    const Image img(64, 64, 0.0f);
    HogParams params;  // cell 8, block 2, bins 9
    const auto d = computeHog(img, params);
    // cells 8x8 -> blocks 7x7 -> 7*7*2*2*9 floats.
    EXPECT_EQ(d.size(), 7u * 7u * 4u * 9u);
}

TEST(Hog, BlocksAreL2Normalized)
{
    Rng rng(1);
    const Image img = synth::scene(64, 64, rng);
    const auto d = computeHog(img);
    const std::size_t blockLen = 4 * 9;
    for (std::size_t start = 0; start + blockLen <= d.size();
         start += blockLen) {
        double norm = 0.0;
        for (std::size_t i = start; i < start + blockLen; ++i)
            norm += static_cast<double>(d[i]) * static_cast<double>(d[i]);
        EXPECT_LE(std::sqrt(norm), 1.0 + 1e-3);
    }
}

TEST(Hog, VerticalEdgeDominatesExpectedBin)
{
    // A vertical edge has a horizontal gradient: orientation ~0 (mod pi).
    Image img(32, 32, 0.0f);
    synth::drawRect(img, 16, 0, 31, 31, 200.0f);
    const auto d = computeHog(img);
    // Find the max-magnitude bin across the descriptor; it should be
    // bin 0 or bin 8 (orientations near 0 / pi).
    std::size_t best = 0;
    for (std::size_t i = 1; i < d.size(); ++i)
        if (d[i] > d[best])
            best = i;
    const std::size_t bin = best % 9;
    EXPECT_TRUE(bin == 0 || bin == 8) << "dominant bin " << bin;
}

TEST(LinearSvm, LearnsSeparableProblem)
{
    // Two Gaussian blobs separated along the first dimension.
    Rng rng(3);
    std::vector<Descriptor> xs;
    std::vector<int> ys;
    for (int i = 0; i < 40; ++i) {
        const float center = i % 2 == 0 ? 2.0f : -2.0f;
        Descriptor d{center + static_cast<float>(0.3 * rng.normal()),
                     static_cast<float>(0.3 * rng.normal())};
        xs.push_back(d);
        ys.push_back(i % 2 == 0 ? 1 : -1);
    }
    LinearSvm svm;
    svm.train(xs, ys);
    EXPECT_TRUE(svm.trained());
    int correct = 0;
    for (std::size_t i = 0; i < xs.size(); ++i)
        correct += svm.predict(xs[i]) == ys[i] ? 1 : 0;
    EXPECT_GE(correct, 38);  // >= 95% of 40
}

TEST(LinearSvm, DecisionSignMatchesPrediction)
{
    std::vector<Descriptor> xs{{1.0f}, {-1.0f}, {2.0f}, {-2.0f}};
    std::vector<int> ys{1, -1, 1, -1};
    LinearSvm svm;
    svm.train(xs, ys);
    EXPECT_EQ(svm.predict({3.0f}), 1);
    EXPECT_EQ(svm.predict({-3.0f}), -1);
    EXPECT_GT(svm.decision({3.0f}), 0.0);
}

TEST(LinearSvm, EmptyTrainingIsFatal)
{
    LinearSvm svm;
    EXPECT_THROW(svm.train({}, {}), FatalError);
}

TEST(Knn, MajorityVoteClassification)
{
    std::vector<Descriptor> refs{{0.0f}, {0.1f}, {0.2f},
                                 {5.0f}, {5.1f}, {5.2f}};
    std::vector<int> labels{1, 1, 1, -1, -1, -1};
    KnnClassifier knn;
    knn.fit(refs, labels);
    KnnParams params;
    params.k = 3;
    const auto out = knn.predict({{0.05f}, {5.05f}}, params);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], -1);
}

TEST(Knn, MismatchedFitIsFatal)
{
    KnnClassifier knn;
    EXPECT_THROW(knn.fit({{1.0f}}, {1, -1}), FatalError);
}

TEST(Knn, GridDescriptorsCountAndMeanCentered)
{
    Rng rng(5);
    const Image img = synth::scene(60, 60, rng);
    KnnParams params;
    params.patchGrid = 3;
    params.patchDim = 8;
    const auto descs = gridDescriptors(img, params);
    ASSERT_EQ(descs.size(), 9u);
    for (const auto& d : descs) {
        ASSERT_EQ(d.size(), 64u);
        double mean = 0.0;
        for (float v : d)
            mean += v;
        EXPECT_NEAR(mean / 64.0, 0.0, 1e-3);
    }
}

TEST(ObjRec, TrainsAndClassifiesPrototypeClasses)
{
    ObjectRecognizer rec;
    ObjRecParams params;
    rec.train(48, 0xC1A55ull, params);
    EXPECT_TRUE(rec.trained());

    // Class 2 prototypes are face scenes; a fresh face scene should be
    // recognized more often than not, but at minimum classification
    // must return a valid class.
    Rng rng(11);
    const Image img = synth::facesScene(48, 48, rng, 2);
    const int cls = rec.classify(img);
    EXPECT_GE(cls, 0);
    EXPECT_LT(cls, params.numClasses);
}

TEST(ObjRec, ClassifyBeforeTrainIsFatal)
{
    ObjectRecognizer rec;
    const Image img(48, 48, 0.0f);
    EXPECT_THROW(rec.classify(img), FatalError);
}

TEST(FaceDet, DetectsStampedFace)
{
    Image img(96, 96, 128.0f);
    synth::stampFace(img, 48, 48, 12);
    const auto faces = detectFaces(img);
    ASSERT_FALSE(faces.empty());
    // The best detection should cover the stamped face center.
    bool covered = false;
    for (const auto& f : faces) {
        if (f.x <= 48 && 48 <= f.x + f.size && f.y <= 48 &&
            48 <= f.y + f.size)
            covered = true;
    }
    EXPECT_TRUE(covered);
}

TEST(FaceDet, MostlyQuietOnTexture)
{
    Rng rng(13);
    const Image img = synth::texture(96, 96, rng);
    const auto faces = detectFaces(img);
    // The cascade rejects almost all texture windows; a couple of
    // false positives are tolerable, a flood is not.
    EXPECT_LE(faces.size(), 3u);
}

TEST(FaceDet, OverlapSuppressionKeepsDistinctBoxes)
{
    Image img(128, 96, 128.0f);
    synth::stampFace(img, 32, 48, 11);
    synth::stampFace(img, 96, 48, 11);
    const auto faces = detectFaces(img);
    EXPECT_GE(faces.size(), 2u);
    // No two kept boxes may be near-duplicates.
    for (std::size_t i = 0; i < faces.size(); ++i) {
        for (std::size_t j = i + 1; j < faces.size(); ++j) {
            const int dx = faces[i].x - faces[j].x;
            const int dy = faces[i].y - faces[j].y;
            EXPECT_GT(dx * dx + dy * dy, 16);
        }
    }
}

}  // namespace
