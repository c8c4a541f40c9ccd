/**
 * @file
 * Quickstart: the end-to-end MAPP workflow in ~60 lines.
 *
 *  1. Collect the paper's 91-run campaign (profile workloads, measure
 *     single-instance CPU/GPU times, fairness, and bag GPU times).
 *  2. Train the decision-tree predictor on the full feature vector.
 *  3. Predict an unseen bag and explain the prediction.
 */

#include <cstdio>

#include "ml/metrics.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"

using namespace mapp;

int
main()
{
    // 1. Measure the training campaign on the simulated testbed.
    predictor::DataCollector collector;
    const auto specs = predictor::DataCollector::campaign91();
    std::printf("collecting %zu bag runs...\n", specs.size());
    const auto points = collector.collectAll(specs);

    // 2. Train the predictor (full Table-IV feature vector).
    predictor::MultiAppPredictor model;
    model.train(points);
    std::printf("trained: %zu tree nodes, depth %d\n",
                model.tree().nodeCount(), model.tree().depth());

    // 3. Predict a bag the campaign never measured: SIFT@60 + HoG@60.
    const predictor::BagSpec unseen{
        {vision::BenchmarkId::Sift, 60}, {vision::BenchmarkId::Hog, 60}};
    const auto truth = collector.collect(unseen);
    const auto explanation = model.explain(truth);

    std::printf("bag %s\n", unseen.label().c_str());
    std::printf("  measured GPU bag time : %.6f s\n", truth.gpuBagTime);
    std::printf("  predicted             : %.6f s\n",
                explanation.predictedSeconds);
    std::printf("  relative error        : %.2f %%\n",
                ml::relativeErrorPercent(truth.gpuBagTime,
                                         explanation.predictedSeconds));
    std::printf("  decision path (%zu nodes):\n", explanation.path.size());
    for (const auto& step : explanation.path) {
        std::printf("    %s <= %.4f -> %s\n",
                    explanation
                        .featureNames[static_cast<std::size_t>(step.feature)]
                        .c_str(),
                    step.threshold, step.wentLeft ? "yes" : "no");
    }

    // Bonus: the two most important features (Section VI-C's finding:
    // GPU time and fairness dominate).
    std::printf("feature importances:\n");
    for (const auto& [name, importance] : model.featureImportances())
        if (importance > 0.02)
            std::printf("    %-14s %.3f\n", name.c_str(), importance);
    return 0;
}
