#include "ml/compiled_tree.h"

#include <algorithm>

#include "common/log.h"
#include "common/parallel.h"
#include "obs/metrics.h"

namespace mapp::ml {

namespace {

/** Rows kept in flight per walk block (the widest unrolled block). */
constexpr std::size_t kBlockRows = 32;

/**
 * Steps the fixed-step walk runs between "is every row at a leaf?"
 * probes. Most rows exit well before the tree's depth bound; probing
 * every few steps recovers that slack for the price of one
 * well-predicted branch per probe (a probe can only ever skip no-op
 * steps, so it never changes results).
 */
constexpr int kStepsPerProbe = 3;

/**
 * Rows per parallelFor task for a SINGLE-tree batch. Measurably larger
 * than the forest chunk on purpose: a shallow single tree finishes a
 * 32-row block in a few dozen compare steps, so with 256-row chunks
 * the per-task fixed costs (task dispatch, block setup/teardown) are a
 * visible fraction of the work — that overhead ratio is why
 * bench.inference.tree.batch.speedup sat near 1.17x while the 50-tree
 * forest (50x more walk work per row) reached ~5x. 1024 rows amortizes
 * the fixed costs ~4x further while still splitting campaign-scale
 * batches (thousands of rows) across worker lanes.
 */
constexpr std::size_t kTreeChunkRows = 1024;

/**
 * Rows per parallelFor task for a FOREST batch. Smaller than the
 * single-tree chunk: each chunk walks EVERY tree, so 256 rows already
 * carries enough work to bury task overhead, finer granularity
 * load-balances better across lanes, and the per-block accumulator +
 * row slab stay resident in L1/L2 while all trees stream over them.
 */
constexpr std::size_t kForestChunkRows = 256;

/** The flat node arrays one walk reads (see compiled_tree.h). */
struct Nodes
{
    const std::int32_t* feature;
    const double* threshold;
    const std::int32_t* kids;
};

/**
 * The early-exit one-row walk from @p root to its leaf; NaN fails
 * `<=` and routes right, as in the oracle walk.
 */
std::int32_t
leafOf(const Nodes& nodes, std::int32_t root, std::span<const double> x)
{
    std::int32_t cur = root;
    while (nodes.kids[2 * static_cast<std::size_t>(cur)] != cur) {
        const auto c = static_cast<std::size_t>(cur);
        const double v = x[static_cast<std::size_t>(nodes.feature[c])];
        cur = v <= nodes.threshold[c] ? nodes.kids[2 * c]
                                      : nodes.kids[2 * c + 1];
    }
    return cur;
}

/**
 * Advance @p RowCount rows through one tree for a fixed @p steps
 * comparisons and write (or, with @p accumulate, add) each row's leaf
 * value to @p out. Rows that reach a leaf early self-loop on it (the
 * sentinel encoding), so there is no per-step termination branch and
 * the RowCount dependent load chains proceed in parallel.
 *
 * The pointers are `__restrict__` on purpose: `out` shares the double
 * type with the threshold array, and without the no-alias promise the
 * compiler must reload node data after every store — which serializes
 * the row chains and erases the whole point of the interleaving. The
 * walk advances a LOCAL state array `c` with constant indices
 * (RowCount is a template parameter and the loops unroll completely
 * under this TU's -O3 -funroll-loops), so the per-step state update is
 * register-promotable and costs no load/store traffic on a kernel that
 * is otherwise load-port bound.
 *
 * Each level costs four loads per row — feature id, the row's feature
 * value, threshold, and the taken child `kids[2n + !(x <= t)]`. The
 * indexed child load is deliberate: a load is one cheap load-port uop,
 * while a register select (cmov, or a shift of a packed word)
 * lengthens each level's dependency chain.
 */
template <std::size_t RowCount>
__attribute__((noinline)) void
walkBlock(const std::int32_t* __restrict__ feature,
          const double* __restrict__ threshold,
          const std::int32_t* __restrict__ kids, std::int32_t root,
          int steps, const double* __restrict__ rows,
          std::size_t n_features, double* __restrict__ out,
          bool accumulate)
{
    std::int32_t c[RowCount];
    for (std::size_t i = 0; i < RowCount; ++i)
        c[i] = root;
    for (int s = 0; s < steps;) {
        const int stop = std::min(steps, s + kStepsPerProbe - 1);
        for (; s < stop; ++s) {
            for (std::size_t i = 0; i < RowCount; ++i) {
                const auto n = static_cast<std::size_t>(c[i]);
                const double x =
                    rows[i * n_features +
                         static_cast<std::size_t>(feature[n])];
                c[i] = kids[2 * n + static_cast<std::size_t>(
                                        !(x <= threshold[n]))];
            }
        }
        if (s >= steps)
            break;
        // Probe step: same walk, but fold "did any row move?" into
        // the step itself (a leaf self-loops, so next == c iff the
        // row is done) — the check reuses values already in flight
        // instead of a separate pass over the block.
        bool done = true;
        for (std::size_t i = 0; i < RowCount; ++i) {
            const auto n = static_cast<std::size_t>(c[i]);
            const double x =
                rows[i * n_features +
                     static_cast<std::size_t>(feature[n])];
            const std::int32_t next =
                kids[2 * n +
                     static_cast<std::size_t>(!(x <= threshold[n]))];
            done &= next == c[i];
            c[i] = next;
        }
        ++s;
        if (done)
            break;  // self-loop sentinel: extra steps are no-ops
    }
    if (accumulate)
        for (std::size_t i = 0; i < RowCount; ++i)
            out[i] += threshold[static_cast<std::size_t>(c[i])];
    else
        for (std::size_t i = 0; i < RowCount; ++i)
            out[i] = threshold[static_cast<std::size_t>(c[i])];
}

/**
 * Walk @p row_count rows through one tree in RowCount-row blocks, then
 * hand the remainder down the power-of-two cascade (32/16/8/4/2/1), so
 * every row runs fully unrolled codegen.
 */
template <std::size_t RowCount>
void
walkCascade(const Nodes& nodes, std::int32_t root, int steps,
            const double* rows, std::size_t n_features,
            std::size_t row_count, double* out, bool accumulate)
{
    for (; row_count >= RowCount; row_count -= RowCount) {
        walkBlock<RowCount>(nodes.feature, nodes.threshold, nodes.kids,
                            root, steps, rows, n_features, out,
                            accumulate);
        rows += RowCount * n_features;
        out += RowCount;
    }
    if constexpr (RowCount > 1) {
        if (row_count > 0)
            walkCascade<RowCount / 2>(nodes, root, steps, rows,
                                      n_features, row_count, out,
                                      accumulate);
    }
}

void
checkBatchShape(const char* who, std::size_t flat, std::size_t n_features,
                std::size_t n_rows)
{
    if (flat != n_features * n_rows)
        fatal(std::string(who) +
              ": rowMajor size does not equal nFeatures * out size");
}

void
countBatch(std::size_t rows)
{
    // Cached references: the registry owns its counters for the
    // process lifetime, and a string-keyed map lookup per batch would
    // cost more than a small batch's entire traversal.
    static obs::Counter& batches =
        obs::defaultRegistry().counter("ml.inference.batches");
    static obs::Counter& batchRows =
        obs::defaultRegistry().counter("ml.inference.batch_rows");
    batches.add(1);
    batchRows.add(rows);
}

/**
 * One tree-batch chunk: rows [begin, end) through a single tree.
 * Deliberately noinline — the walk's block loop gets its own register
 * allocation instead of being inlined into whichever caller dispatches
 * it (inlining into predictBatch measurably degrades the unrolled
 * walk's codegen).
 */
__attribute__((noinline)) void
treeChunk(const Nodes& nodes, int steps, const double* row_major,
          std::size_t n_features, double* out, std::size_t begin,
          std::size_t end)
{
    double buf[kBlockRows];
    for (std::size_t r0 = begin; r0 < end; r0 += kBlockRows) {
        std::size_t count = end - r0;
        std::size_t skip = 0;
        if (count > kBlockRows) {
            count = kBlockRows;
        } else if (count < kBlockRows && end - begin >= kBlockRows) {
            // Partial final block with enough history in this chunk:
            // slide back to a full block and re-walk a few rows.
            // Predictions are deterministic, so the overlapped slots
            // are rewritten with identical values, and the overlap
            // never leaves [begin, end) — no cross-chunk writes.
            skip = kBlockRows - count;
            r0 -= skip;
            count = kBlockRows;
        }
        const double* rows = row_major + r0 * n_features;
        if (skip == 0) {
            walkCascade<kBlockRows>(nodes, 0, steps, rows, n_features,
                                    count, out + r0, false);
        } else {
            walkCascade<kBlockRows>(nodes, 0, steps, rows, n_features,
                                    count, buf, false);
            for (std::size_t i = skip; i < count; ++i)
                out[r0 + i] = buf[i];
        }
    }
}

/** One forest-batch chunk: rows [begin, end) through every tree,
 * accumulating per-row sums in tree order (bit-identical to the
 * reference per-row ensemble walk). Noinline for the same reason as
 * treeChunk. */
__attribute__((noinline)) void
forestChunk(const Nodes& nodes, const std::int32_t* roots,
            const int* steps, std::size_t n_trees,
            const double* row_major, std::size_t n_features,
            double* out, std::size_t begin, std::size_t end)
{
    double acc[kBlockRows];
    const auto divisor = static_cast<double>(n_trees);
    for (std::size_t r0 = begin; r0 < end; r0 += kBlockRows) {
        std::size_t count = end - r0;
        std::size_t skip = 0;
        if (count > kBlockRows) {
            count = kBlockRows;
        } else if (count < kBlockRows && end - begin >= kBlockRows) {
            // Same backward overlap as treeChunk: the accumulator is
            // per-block, so re-walking a few already-written rows just
            // recomputes identical sums — only the out writes skip the
            // overlapped prefix.
            skip = kBlockRows - count;
            r0 -= skip;
            count = kBlockRows;
        }
        const double* rows = row_major + r0 * n_features;
        for (std::size_t i = 0; i < count; ++i)
            acc[i] = 0.0;
        // Trees outer, rows inner: each tree's nodes stay hot across
        // the block while every row still sums in tree order.
        for (std::size_t t = 0; t < n_trees; ++t)
            walkCascade<kBlockRows>(nodes, roots[t], steps[t], rows,
                                    n_features, count, acc, true);
        for (std::size_t i = skip; i < count; ++i)
            out[r0 + i] = acc[i] / divisor;
    }
}

/** Append one tree's nodes at index offset @p base: a leaf stores its
 * value as the threshold and points both children at itself. */
void
appendNodes(const DecisionTreeRegressor& tree, std::int32_t base,
            std::vector<std::int32_t>& feature,
            std::vector<double>& threshold,
            std::vector<std::int32_t>& kids)
{
    for (std::size_t i = 0; i < tree.nodeCount(); ++i) {
        const auto v = tree.nodeView(i);
        const auto self = base + static_cast<std::int32_t>(i);
        feature.push_back(v.leaf ? 0 : v.feature);
        threshold.push_back(v.leaf ? v.value : v.threshold);
        kids.push_back(v.leaf ? self : base + v.left);
        kids.push_back(v.leaf ? self : base + v.right);
    }
}

}  // namespace

CompiledTree::CompiledTree(const DecisionTreeRegressor& tree)
{
    if (!tree.trained())
        fatal("CompiledTree: source tree not trained");
    const std::size_t n = tree.nodeCount();
    feature_.reserve(n);
    threshold_.reserve(n);
    kids_.reserve(2 * n);
    appendNodes(tree, 0, feature_, threshold_, kids_);
    steps_ = tree.depth();
}

double
CompiledTree::predict(std::span<const double> x) const
{
    if (!compiled())
        fatal("CompiledTree::predict: not compiled");
    const Nodes nodes{feature_.data(), threshold_.data(), kids_.data()};
    return threshold_[static_cast<std::size_t>(leafOf(nodes, 0, x))];
}

std::int32_t
CompiledTree::predictLeaf(std::span<const double> x) const
{
    if (!compiled())
        fatal("CompiledTree::predictLeaf: not compiled");
    const Nodes nodes{feature_.data(), threshold_.data(), kids_.data()};
    return leafOf(nodes, 0, x);
}

void
CompiledTree::predictBatch(std::span<const double> rowMajor,
                           std::size_t nFeatures,
                           std::span<double> out) const
{
    if (!compiled())
        fatal("CompiledTree::predictBatch: not compiled");
    const std::size_t nRows = out.size();
    checkBatchShape("CompiledTree::predictBatch", rowMajor.size(),
                    nFeatures, nRows);
    if (nRows == 0)
        return;
    countBatch(nRows);

    const Nodes nodes{feature_.data(), threshold_.data(), kids_.data()};
    const std::size_t nChunks =
        (nRows + kTreeChunkRows - 1) / kTreeChunkRows;
    parallel::parallelFor(nChunks, [&](std::size_t chunk) {
        const std::size_t begin = chunk * kTreeChunkRows;
        const std::size_t end =
            std::min(begin + kTreeChunkRows, nRows);
        treeChunk(nodes, steps_, rowMajor.data(), nFeatures, out.data(),
                  begin, end);
    });
}

std::vector<double>
CompiledTree::predict(const Dataset& data) const
{
    const auto flat = data.toRowMajor();
    std::vector<double> out(data.size());
    predictBatch(flat, data.numFeatures(), out);
    return out;
}

CompiledForest::CompiledForest(const RandomForestRegressor& forest)
{
    if (!forest.trained())
        fatal("CompiledForest: source forest not trained");
    const auto& trees = forest.trees();
    std::size_t total = 0;
    for (const auto& tree : trees)
        total += tree.nodeCount();
    feature_.reserve(total);
    threshold_.reserve(total);
    kids_.reserve(2 * total);
    roots_.reserve(trees.size());
    steps_.reserve(trees.size());
    for (const auto& tree : trees) {
        const auto base = static_cast<std::int32_t>(feature_.size());
        roots_.push_back(base);
        steps_.push_back(tree.depth());
        appendNodes(tree, base, feature_, threshold_, kids_);
    }
}

double
CompiledForest::predict(std::span<const double> x) const
{
    if (!compiled())
        fatal("CompiledForest::predict: not compiled");
    const Nodes nodes{feature_.data(), threshold_.data(), kids_.data()};
    double acc = 0.0;
    for (std::int32_t root : roots_)
        acc += threshold_[static_cast<std::size_t>(
            leafOf(nodes, root, x))];
    return acc / static_cast<double>(roots_.size());
}

double
CompiledForest::predictVotes(std::span<const double> x,
                             std::vector<double>& votes) const
{
    if (!compiled())
        fatal("CompiledForest::predictVotes: not compiled");
    const Nodes nodes{feature_.data(), threshold_.data(), kids_.data()};
    votes.resize(roots_.size());
    double acc = 0.0;
    for (std::size_t t = 0; t < roots_.size(); ++t) {
        votes[t] = threshold_[static_cast<std::size_t>(
            leafOf(nodes, roots_[t], x))];
        acc += votes[t];
    }
    return acc / static_cast<double>(roots_.size());
}

void
CompiledForest::predictBatch(std::span<const double> rowMajor,
                             std::size_t nFeatures,
                             std::span<double> out) const
{
    if (!compiled())
        fatal("CompiledForest::predictBatch: not compiled");
    const std::size_t nRows = out.size();
    checkBatchShape("CompiledForest::predictBatch", rowMajor.size(),
                    nFeatures, nRows);
    if (nRows == 0)
        return;
    countBatch(nRows);

    const Nodes nodes{feature_.data(), threshold_.data(), kids_.data()};
    const std::size_t nChunks =
        (nRows + kForestChunkRows - 1) / kForestChunkRows;
    parallel::parallelFor(nChunks, [&](std::size_t chunk) {
        const std::size_t begin = chunk * kForestChunkRows;
        const std::size_t end =
            std::min(begin + kForestChunkRows, nRows);
        forestChunk(nodes, roots_.data(), steps_.data(), roots_.size(),
                    rowMajor.data(), nFeatures, out.data(), begin, end);
    });
}

std::vector<double>
CompiledForest::predict(const Dataset& data) const
{
    const auto flat = data.toRowMajor();
    std::vector<double> out(data.size());
    predictBatch(flat, data.numFeatures(), out);
    return out;
}

}  // namespace mapp::ml
