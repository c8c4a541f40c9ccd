#include "obs/audit.h"

#include "common/file_io.h"
#include "common/log.h"
#include "obs/json_util.h"

namespace mapp::obs {

PredictionLog::PredictionLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
    ring_.reserve(capacity_);
}

void
PredictionLog::setSamplePeriod(std::uint64_t period)
{
    if (period == 0)
        fatal("PredictionLog: sample period must be >= 1");
    period_.store(period, std::memory_order_relaxed);
}

void
PredictionLog::resetSlot(PredictionRecord& slot)
{
    slot.seq = 0;
    slot.tsUs = 0.0;
    slot.model.clear();
    slot.features.clear();
    slot.predictedSeconds = 0.0;
    slot.uncertaintySeconds = 0.0;
    slot.pathSummary.clear();
    slot.actualSeconds = std::numeric_limits<double>::quiet_NaN();
}

void
PredictionLog::annotate(std::uint64_t first_seq,
                        std::span<const double> actual_seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& record : ring_) {
        if (record.seq < first_seq ||
            record.seq >= first_seq + actual_seconds.size())
            continue;
        record.actualSeconds =
            actual_seconds[static_cast<std::size_t>(record.seq -
                                                    first_seq)];
    }
}

std::vector<PredictionRecord>
PredictionLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<PredictionRecord> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

void
PredictionLog::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    head_ = 0;
    nextSeq_.store(0, std::memory_order_relaxed);
    written_.store(0, std::memory_order_relaxed);
}

namespace {

void
appendRecordJson(std::string& out, const PredictionRecord& r)
{
    out += "{\"seq\": " + std::to_string(r.seq);
    out += ", \"ts_us\": ";
    appendJsonNumber(out, r.tsUs);
    out += ", \"model\": ";
    appendJsonString(out, r.model);
    out += ", \"predicted_s\": ";
    appendJsonNumber(out, r.predictedSeconds);
    out += ", \"uncertainty_s\": ";
    appendJsonNumber(out, r.uncertaintySeconds);
    out += ", \"actual_s\": ";
    appendJsonNumber(out, r.actualSeconds);  // null when unknown
    out += ", \"path\": ";
    appendJsonString(out, r.pathSummary);
    out += ", \"features\": [";
    for (std::size_t i = 0; i < r.features.size(); ++i) {
        if (i > 0)
            out += ", ";
        appendJsonNumber(out, r.features[i]);
    }
    out += "]}";
}

}  // namespace

std::string
PredictionLog::toJsonl() const
{
    const auto records = snapshot();
    std::string out;
    out.reserve(records.size() * 256);
    for (const auto& r : records) {
        appendRecordJson(out, r);
        out += '\n';
    }
    return out;
}

bool
PredictionLog::writeJsonl(const std::string& path) const
{
    return writeFileAtomic(path, toJsonl());
}

PredictionLog&
predictionLog()
{
    static PredictionLog instance;
    return instance;
}

}  // namespace mapp::obs
