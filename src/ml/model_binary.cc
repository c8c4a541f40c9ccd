#include "ml/model_binary.h"

#include "cache/binary_io.h"
#include "common/error.h"
#include "common/log.h"

namespace mapp::ml {

namespace {

constexpr std::string_view kTreeMagic = "MMDL";
constexpr std::uint32_t kTreeVersion = 1;

void
writeTreeBody(cache::BinaryWriter& w, const DecisionTreeRegressor& tree)
{
    const auto& p = tree.params();
    w.i32(p.maxDepth);
    w.i32(p.minSamplesSplit);
    w.i32(p.minSamplesLeaf);
    w.f64(p.minImpurityDecrease);
    w.u64(tree.featureNames().size());
    for (const auto& name : tree.featureNames())
        w.str(name);
    w.u64(tree.nodeCount());
    for (std::size_t i = 0; i < tree.nodeCount(); ++i) {
        const TreeNodeView v = tree.nodeView(i);
        w.u8(v.leaf ? 1 : 0);
        w.i32(v.feature);
        w.f64(v.threshold);
        w.f64(v.value);
        w.f64(v.sse);
        w.i32(v.samples);
        w.i32(v.left);
        w.i32(v.right);
    }
}

DecisionTreeRegressor
readTreeBody(cache::BinaryReader& r)
{
    DecisionTreeParams params;
    params.maxDepth = r.i32();
    params.minSamplesSplit = r.i32();
    params.minSamplesLeaf = r.i32();
    params.minImpurityDecrease = r.f64();
    const std::uint64_t numNames = r.count();
    std::vector<std::string> names;
    names.reserve(numNames);
    for (std::uint64_t k = 0; k < numNames; ++k)
        names.push_back(r.str());
    const std::uint64_t numNodes = r.count();
    std::vector<TreeNodeView> nodes;
    nodes.reserve(numNodes);
    for (std::uint64_t i = 0; i < numNodes; ++i) {
        TreeNodeView v;
        v.leaf = r.u8() != 0;
        v.feature = r.i32();
        v.threshold = r.f64();
        v.value = r.f64();
        v.sse = r.f64();
        v.samples = r.i32();
        v.left = r.i32();
        v.right = r.i32();
        nodes.push_back(v);
    }
    return DecisionTreeRegressor::fromNodes(nodes, std::move(names),
                                            params);
}

}  // namespace

std::string
treeToBinary(const DecisionTreeRegressor& tree)
{
    if (!tree.trained())
        fatal("treeToBinary: model not trained");
    cache::BinaryWriter w(kTreeMagic, kTreeVersion);
    writeTreeBody(w, tree);
    return std::move(w).finish();
}

DecisionTreeRegressor
treeFromBinary(const std::string& blob, const std::string& source)
{
    cache::BinaryReader r(blob, source, kTreeMagic, kTreeVersion);
    DecisionTreeRegressor tree = readTreeBody(r);
    r.expectEnd();
    return tree;
}

}  // namespace mapp::ml
