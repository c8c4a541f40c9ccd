#include "obs/timer.h"

#include <algorithm>

#include "obs/trace.h"

namespace mapp::obs {

namespace {

/** Joins the phase names of one path. */
constexpr char kPhaseSeparator = '/';

thread_local std::string tPhasePath;

/** Drop the subtrees of @p node that hold no entered phase. */
void
pruneUnentered(PhaseNode& node)
{
    for (auto& child : node.children)
        pruneUnentered(child);
    std::erase_if(node.children, [](const PhaseNode& child) {
        return child.count == 0 && child.children.empty();
    });
}

}  // namespace

const std::string&
currentPhasePath()
{
    return tPhasePath;
}

PhasePathScope::PhasePathScope(const std::string& path)
    : saved_(tPhasePath)
{
    tPhasePath = path;
}

PhasePathScope::~PhasePathScope()
{
    tPhasePath = std::move(saved_);
}

ScopedPhase::ScopedPhase(std::string_view name)
    : parentLength_(tPhasePath.size())
{
    if (parentLength_ > 0)
        tPhasePath += kPhaseSeparator;
    tPhasePath += name;
    if (tracer().enabled())
        startUs_ = tracer().wallTimeUs();
}

ScopedPhase::~ScopedPhase()
{
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    std::string key(kPhasePrefix);
    key += tPhasePath;
    defaultRegistry().histogram(key).observe(seconds);
    Tracer& tr = tracer();
    if (tr.enabled()) {
        const std::size_t nameStart =
            parentLength_ > 0 ? parentLength_ + 1 : 0;
        tr.completeEvent(tPhasePath.substr(nameStart), "pipeline",
                         startUs_, seconds * 1e6, kPipelineTrackPid, 0);
    }
    tPhasePath.resize(parentLength_);
}

PhaseNode
phaseTree(const RegistrySnapshot& snapshot)
{
    // The snapshot lists histograms by name, so a parent path comes
    // before its children and siblings come in name order.
    PhaseNode root;
    for (const auto& h : snapshot.histograms) {
        std::string_view path(h.name);
        if (!path.starts_with(kPhasePrefix))
            continue;
        path.remove_prefix(kPhasePrefix.size());
        PhaseNode* node = &root;
        for (;;) {
            const std::size_t cut = path.find(kPhaseSeparator);
            const std::string_view name = path.substr(0, cut);
            auto it = std::find_if(
                node->children.begin(), node->children.end(),
                [&](const PhaseNode& child) { return child.name == name; });
            if (it == node->children.end()) {
                node->children.emplace_back().name = name;
                it = std::prev(node->children.end());
            }
            node = &*it;
            if (cut == std::string_view::npos)
                break;
            path.remove_prefix(cut + 1);
        }
        node->seconds = h.sum;
        node->count = h.count;
    }
    pruneUnentered(root);
    return root;
}

}  // namespace mapp::obs
