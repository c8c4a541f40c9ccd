#include "isa/trace_binary.h"

#include "cache/binary_io.h"
#include "common/error.h"
#include "isa/inst_class.h"

namespace mapp::isa {

namespace {

constexpr std::string_view kMagic = "MTRC";
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::string
traceToBinary(const WorkloadTrace& trace)
{
    cache::BinaryWriter w(kMagic, kVersion);
    w.str(trace.app());
    w.i32(trace.batchSize());
    w.u32(static_cast<std::uint32_t>(kNumInstClasses));
    w.u64(trace.size());
    for (const auto& p : trace.phases()) {
        w.str(p.name);
        for (InstClass c : kAllInstClasses)
            w.u64(p.mix.count(c));
        w.u64(p.bytesRead);
        w.u64(p.bytesWritten);
        w.u64(p.footprint);
        w.f64(p.parallelFraction);
        w.u64(p.workItems);
        w.f64(p.locality);
        w.f64(p.branchDivergence);
        w.u64(p.launches);
        w.u8(p.hostStaged ? 1 : 0);
    }
    return std::move(w).finish();
}

WorkloadTrace
traceFromBinary(const std::string& blob, const std::string& source)
{
    cache::BinaryReader r(blob, source, kMagic, kVersion);
    const std::string app = r.str();
    const std::int32_t batch = r.i32();
    const std::uint32_t numClasses = r.u32();
    if (numClasses != kNumInstClasses)
        raise({ErrorCode::Schema,
               "instruction-class count mismatch (expected " +
                   std::to_string(kNumInstClasses) + ", found " +
                   std::to_string(numClasses) + ")",
               {source, 0, ""}});
    const std::uint64_t phases = r.u64();
    WorkloadTrace trace(app, batch);
    for (std::uint64_t i = 0; i < phases; ++i) {
        KernelPhase p;
        p.name = r.str();
        for (InstClass c : kAllInstClasses)
            p.mix.add(c, r.u64());
        p.bytesRead = r.u64();
        p.bytesWritten = r.u64();
        p.footprint = r.u64();
        p.parallelFraction = r.f64();
        p.workItems = r.u64();
        p.locality = r.f64();
        p.branchDivergence = r.f64();
        p.launches = r.u64();
        p.hostStaged = r.u8() != 0;
        // append() re-validates the phase, so semantic corruption that
        // survives the checksum still cannot enter the pipeline.
        trace.append(std::move(p));
    }
    r.expectEnd();
    return trace;
}

}  // namespace mapp::isa
