#include "serve/protocol.h"

#include <cmath>
#include <limits>

#include "common/log.h"
#include "common/parse.h"
#include "obs/json_reader.h"
#include "obs/json_util.h"
#include "vision/registry.h"

namespace mapp::serve {

namespace {

/** A well-formed request that breaks the schema: "bad_request". */
Error
protoError(std::string message, const std::string& label)
{
    SourceContext context;
    context.file = label;
    return Error(ErrorCode::InvalidArgument, std::move(message),
                 std::move(context));
}

Result<RequestOp>
parseOp(const std::string& name, const std::string& label)
{
    if (name == "ping")
        return RequestOp::Ping;
    if (name == "predict")
        return RequestOp::Predict;
    if (name == "predict_batch")
        return RequestOp::PredictBatch;
    if (name == "quality")
        return RequestOp::Quality;
    if (name == "stats")
        return RequestOp::Stats;
    if (name == "metrics")
        return RequestOp::Metrics;
    if (name == "reload")
        return RequestOp::Reload;
    if (name == "shutdown")
        return RequestOp::Shutdown;
    return protoError("unknown op '" + name + "'", label);
}

/** "SIFT@40" -> BagMember. */
Result<predictor::BagMember>
parseMemberRef(const std::string& text, const std::string& label)
{
    const auto at = text.find('@');
    if (at == std::string::npos)
        return protoError("member '" + text +
                              "' is not BENCH@BATCH",
                          label);
    predictor::BagMember member;
    try {
        member.id = vision::benchmarkFromName(text.substr(0, at));
    } catch (const FatalError& e) {
        return protoError(e.what(), label);
    }
    const auto batch =
        parseBoundedInt(text.substr(at + 1), 1, 1'000'000);
    if (!batch)
        return protoError("member '" + text + "': " +
                              batch.error().message(),
                          label);
    member.batchSize = batch.value();
    return member;
}

/** Raw per-app feature object -> AppFeatures. */
Result<predictor::AppFeatures>
parseRawApp(const obs::JsonValue& obj, const char* slot,
            const std::string& label)
{
    using namespace std::string_literals;
    if (!obj.isObject())
        return protoError(
            "query member '"s + slot +
                "' must be a BENCH@BATCH string or a feature object",
            label);
    predictor::AppFeatures features;
    if (const auto* app = obj.find("app");
        app != nullptr && app->kind() == obs::JsonValue::Kind::String)
        features.app = app->text();
    if (const auto* batch = obj.find("batch")) {
        const double v = batch->numberOr(-1.0);
        if (!(v >= 0.0 && v <= std::numeric_limits<int>::max()) ||
            std::floor(v) != v)
            return protoError("query member '"s + slot +
                                  "' 'batch' must be an integer in "
                                  "[0, INT_MAX]",
                              label);
        features.batchSize = static_cast<int>(v);
    }
    const auto requireNumber =
        [&](const char* key) -> Result<double> {
        const auto* v = obj.find(key);
        if (v == nullptr ||
            v->kind() != obs::JsonValue::Kind::Number ||
            !std::isfinite(v->number())) {
            return protoError("query member '"s + slot +
                                  "' needs a finite number '" + key +
                                  "'",
                              label);
        }
        return v->number();
    };
    auto cpu = requireNumber("cpu_time");
    if (!cpu)
        return cpu.error();
    features.cpuTime = cpu.value();
    auto gpu = requireNumber("gpu_time");
    if (!gpu)
        return gpu.error();
    features.gpuTime = gpu.value();
    const auto* mix = obj.find("mix");
    if (mix == nullptr || !mix->isArray() ||
        mix->items().size() != isa::kNumInstClasses) {
        return protoError(
            "query member '"s + slot + "' needs 'mix' with " +
                std::to_string(isa::kNumInstClasses) + " percentages",
            label);
    }
    for (std::size_t i = 0; i < isa::kNumInstClasses; ++i) {
        const auto& v = mix->items()[i];
        if (v.kind() != obs::JsonValue::Kind::Number ||
            !std::isfinite(v.number())) {
            return protoError("query member '"s + slot + "' mix[" +
                                  std::to_string(i) +
                                  "] is not a finite number",
                              label);
        }
        features.mixPercent[i] = v.number();
    }
    return features;
}

/** One query object ({"a":..,"b":..,"fairness":..}) -> QuerySpec. */
Result<QuerySpec>
parseQuerySpec(const obs::JsonValue& obj, const std::string& label)
{
    if (!obj.isObject())
        return protoError("query must be an object", label);
    const auto* a = obj.find("a");
    const auto* b = obj.find("b");
    if (a == nullptr || b == nullptr)
        return protoError("query needs members 'a' and 'b'", label);

    QuerySpec spec;
    const auto* fairness = obj.find("fairness");
    if (fairness != nullptr) {
        if (fairness->kind() != obs::JsonValue::Kind::Number ||
            !std::isfinite(fairness->number()))
            return protoError("'fairness' must be a finite number",
                              label);
        spec.raw.fairness = fairness->number();
        spec.fairnessProvided = true;
    }

    const bool aIsText = a->kind() == obs::JsonValue::Kind::String;
    const bool bIsText = b->kind() == obs::JsonValue::Kind::String;
    if (aIsText != bIsText)
        return protoError(
            "members 'a' and 'b' must both be BENCH@BATCH strings or "
            "both be feature objects",
            label);
    if (aIsText) {
        spec.byMembers = true;
        auto ma = parseMemberRef(a->text(), label);
        if (!ma)
            return ma.error();
        spec.a = ma.value();
        auto mb = parseMemberRef(b->text(), label);
        if (!mb)
            return mb.error();
        spec.b = mb.value();
        return spec;
    }
    auto fa = parseRawApp(*a, "a", label);
    if (!fa)
        return fa.error();
    auto fb = parseRawApp(*b, "b", label);
    if (!fb)
        return fb.error();
    if (!spec.fairnessProvided)
        return protoError(
            "raw-feature queries need a top-level 'fairness'", label);
    spec.raw.a = std::move(fa).value();
    spec.raw.b = std::move(fb).value();
    return spec;
}

}  // namespace

std::string_view
requestOpName(RequestOp op)
{
    switch (op) {
      case RequestOp::Ping:
        return "ping";
      case RequestOp::Predict:
        return "predict";
      case RequestOp::PredictBatch:
        return "predict_batch";
      case RequestOp::Quality:
        return "quality";
      case RequestOp::Stats:
        return "stats";
      case RequestOp::Metrics:
        return "metrics";
      case RequestOp::Reload:
        return "reload";
      case RequestOp::Shutdown:
        return "shutdown";
    }
    return "ping";
}

Result<Request>
parseRequest(std::string_view line, const std::string& source_label)
{
    std::string id;
    return parseRequest(line, source_label, id);
}

Result<Request>
parseRequest(std::string_view line, const std::string& source_label,
             std::string& id)
{
    auto doc = obs::parseJson(line, source_label);
    if (!doc)
        return doc.error();
    const obs::JsonValue& root = doc.value();
    if (!root.isObject())
        return protoError("request must be a JSON object",
                          source_label);

    Request request;
    if (const auto* idValue = root.find("id");
        idValue != nullptr &&
        idValue->kind() == obs::JsonValue::Kind::String) {
        id = idValue->text();
        request.id = id;
    }

    const auto* op = root.find("op");
    if (op == nullptr || op->kind() != obs::JsonValue::Kind::String)
        return protoError("request needs a string 'op'", source_label);
    auto verb = parseOp(op->text(), source_label);
    if (!verb)
        return verb.error();
    request.op = verb.value();

    if (const auto* deadline = root.find("deadline_ms")) {
        const double ms = deadline->numberOr(-1.0);
        if (!(ms >= 0.0) || !std::isfinite(ms))
            return protoError(
                "'deadline_ms' must be a non-negative finite number",
                source_label);
        request.deadlineMs = ms;
    }

    if (request.op == RequestOp::Predict) {
        auto spec = parseQuerySpec(root, source_label);
        if (!spec)
            return spec.error();
        request.queries.push_back(std::move(spec).value());
    } else if (request.op == RequestOp::PredictBatch) {
        const auto* queries = root.find("queries");
        if (queries == nullptr || !queries->isArray() ||
            queries->items().empty())
            return protoError(
                "predict_batch needs a non-empty 'queries' array",
                source_label);
        request.queries.reserve(queries->items().size());
        for (const auto& item : queries->items()) {
            auto spec = parseQuerySpec(item, source_label);
            if (!spec)
                return spec.error();
            request.queries.push_back(std::move(spec).value());
        }
    }
    return request;
}

std::string
errorResponse(const std::string& id, std::string_view code,
              std::string_view message)
{
    std::string out = "{\"id\":";
    obs::appendJsonString(out, id);
    out += ",\"ok\":false,\"error\":";
    obs::appendJsonString(out, code);
    out += ",\"message\":";
    obs::appendJsonString(out, message);
    out += '}';
    return out;
}

std::string
ackResponse(const std::string& id, RequestOp op)
{
    return objectResponse(id, op, "");
}

std::string
predictResponse(const std::string& id, RequestOp op,
                std::span<const double> predictedSeconds,
                std::uint64_t epoch, double queueUs)
{
    std::string fields = "\"predicted_seconds\":";
    if (op == RequestOp::Predict) {
        obs::appendJsonNumber(fields, predictedSeconds.empty()
                                          ? 0.0
                                          : predictedSeconds.front());
    } else {
        fields += '[';
        for (std::size_t i = 0; i < predictedSeconds.size(); ++i) {
            if (i > 0)
                fields += ',';
            obs::appendJsonNumber(fields, predictedSeconds[i]);
        }
        fields += ']';
    }
    fields += ",\"epoch\":" + std::to_string(epoch);
    fields += ",\"queue_us\":";
    obs::appendJsonNumber(fields, queueUs);
    return objectResponse(id, op, fields);
}

std::string
reloadResponse(const std::string& id, std::uint64_t epoch)
{
    return objectResponse(id, RequestOp::Reload,
                          "\"epoch\":" + std::to_string(epoch));
}

std::string
objectResponse(const std::string& id, RequestOp op,
               const std::string& renderedFields)
{
    std::string out = "{\"id\":";
    obs::appendJsonString(out, id);
    out += ",\"ok\":true,\"op\":";
    obs::appendJsonString(out, std::string(requestOpName(op)));
    if (!renderedFields.empty()) {
        out += ',';
        out += renderedFields;
    }
    out += '}';
    return out;
}

}  // namespace mapp::serve
