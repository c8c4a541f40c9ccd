/**
 * @file
 * The CART-style decision-tree regressor at the heart of the paper's
 * predictor: greedy MSE-minimizing binary splits (Section II-B.3), a
 * depth hyper-parameter, and — because explainability is the point —
 * full decision-path introspection: which features gate each test
 * point's path and how often (Figures 10-12).
 *
 * The split search uses the classic presorted-CART optimization: the
 * samples are ordered by every feature once at the root and each
 * split stably partitions those orders down to the children, so the
 * whole fit sorts O(F·n log n) once instead of O(F·n log n) per node.
 * Split scores that agree to within a relative tolerance are treated
 * as ties (correlated features routinely produce distinct splits with
 * the same partition) and broken deterministically toward the later
 * candidate, so the grown tree never depends on summation order.
 */

#ifndef MAPP_ML_DECISION_TREE_H
#define MAPP_ML_DECISION_TREE_H

#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"

namespace mapp::ml {

/** Decision-tree hyper-parameters. */
struct DecisionTreeParams
{
    int maxDepth = 10;          ///< pre-specified depth bound
    int minSamplesSplit = 2;    ///< nodes smaller than this become leaves
    int minSamplesLeaf = 2;     ///< each child must keep at least this many
    double minImpurityDecrease = 0.0;  ///< SSE reduction required to split
};

/** One step of a decision path: the node and the branch taken. */
struct DecisionStep
{
    int nodeId = 0;
    int feature = -1;       ///< feature tested at the node
    double threshold = 0.0;
    bool wentLeft = false;
};

/**
 * Read-only view of one tree node, exposed so the model serializer and
 * the predictor's per-leaf audit tables can read a trained tree
 * without depending on the private storage layout.
 */
struct TreeNodeView
{
    bool leaf = true;
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    double sse = 0.0;  ///< sum of squared target errors at the node
    int samples = 0;   ///< training samples that reached the node
    int left = -1;
    int right = -1;
};

/** A CART regression tree. */
class DecisionTreeRegressor
{
  public:
    explicit DecisionTreeRegressor(DecisionTreeParams params = {})
        : params_(params)
    {
    }

    /** Fit to a dataset (features + targets). @throws FatalError if empty. */
    void fit(const Dataset& data);

    /**
     * Fit to raw rows/targets. @throws FatalError if empty, if a row's
     * width differs from the first row's, or if non-empty
     * @p feature_names does not name every column.
     */
    void fit(const std::vector<std::vector<double>>& rows,
             const std::vector<double>& targets,
             std::vector<std::string> feature_names = {});

    /**
     * Reconstruct a trained tree from serialized node views (the
     * model-deserialization path): node 0 is the root and child
     * indices refer into @p nodes. Structural invariants are checked —
     * child indices in range and acyclic (each node reachable from the
     * root at most once), internal nodes carrying a valid feature
     * index, leaves carrying none — and node depths are recomputed, so
     * a corrupt model file cannot produce a tree that predicts out of
     * bounds. @throws FatalError on any violated invariant.
     */
    static DecisionTreeRegressor fromNodes(
        const std::vector<TreeNodeView>& nodes,
        std::vector<std::string> feature_names,
        DecisionTreeParams params = {});

    /**
     * Predict one sample. NaN fails every `<=` test and routes right.
     * @throws FatalError if untrained or @p x is not numFeatures()
     *         long.
     */
    double predict(std::span<const double> x) const;

    /**
     * The node id of the leaf @p x lands on, so callers can key
     * per-leaf tables (audit path summaries, residual RMSE) off it.
     * nodeView(predictLeaf(x)).value == predict(x).
     * @throws FatalError as predict().
     */
    int predictLeaf(std::span<const double> x) const;

    /**
     * Predict a row-major batch: sample r occupies
     * rowMajor[r*nFeatures .. (r+1)*nFeatures) and its prediction is
     * written to out[r]. Element r equals predict() of that row bit
     * for bit.
     * @throws FatalError if untrained, @p nFeatures is not
     *         numFeatures() or rowMajor.size() != nFeatures *
     *         out.size().
     */
    void predictBatch(std::span<const double> rowMajor,
                      std::size_t nFeatures,
                      std::span<double> out) const;

    /** Predict every row of a dataset. */
    std::vector<double> predict(const Dataset& data) const;

    /** The internal decision nodes visited by a sample, in order. */
    std::vector<DecisionStep> decisionPath(std::span<const double> x) const;

    /** Total number of nodes (internal + leaves). */
    std::size_t nodeCount() const { return nodes_.size(); }

    /** View of node @p i (root is 0). @throws FatalError if out of
     *  range. */
    TreeNodeView nodeView(std::size_t i) const;

    /** Depth actually reached. */
    int depth() const;

    /** True once fit() has run. */
    bool trained() const { return !nodes_.empty(); }

    /** The hyper-parameters the tree was constructed with. */
    const DecisionTreeParams& params() const { return params_; }

    /** Number of features the tree was trained on. */
    std::size_t numFeatures() const { return featureNames_.size(); }

    /** Feature names (empty strings if fitted from raw rows). */
    const std::vector<std::string>& featureNames() const
    {
        return featureNames_;
    }

    /**
     * Impurity-decrease feature importances, normalized to sum to 1
     * (scikit-learn's definition).
     */
    std::vector<double> featureImportances() const;

    /** Readable multi-line rendering of the tree. */
    std::string toText() const;

  private:
    struct Node
    {
        bool leaf = true;
        int feature = -1;
        double threshold = 0.0;
        double value = 0.0;       ///< mean target at the node
        double sse = 0.0;         ///< sum of squared errors at the node
        int samples = 0;
        int left = -1;
        int right = -1;
        int depth = 0;
    };

    /** The leaf node @p x lands on; no checks (callers validate). */
    const Node& leafOf(const double* x) const;

    /**
     * Grow one subtree over the samples in @p orders (one presorted
     * index array per feature, all covering the same sample set).
     * @p indices holds the same samples in partition order (root:
     * dataset order; children: the parent's order filtered) — node
     * statistics sum in that order so the grown tree is bit-identical
     * to the naive per-node-sort search. @p side is a rows.size()
     * scratch buffer marking each sample's split side.
     */
    int buildNode(const std::vector<std::vector<double>>& rows,
                  const std::vector<double>& targets,
                  std::vector<std::vector<std::size_t>>& orders,
                  const std::vector<std::size_t>& indices, int depth,
                  std::vector<char>& side);

    DecisionTreeParams params_;
    std::vector<Node> nodes_;
    std::vector<std::string> featureNames_;
};

}  // namespace mapp::ml

#endif  // MAPP_ML_DECISION_TREE_H
