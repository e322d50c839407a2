#include "ingest/openpulse.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "pulse/waveform.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qpulse {
namespace ingest {

namespace {

/** Shared formatting for every lowering rejection. */
class Lowerer
{
  public:
    Lowerer(std::string_view text, const IngestLimits &limits)
        : text_(text), limits_(limits)
    {}

    Status
    lower(const JsonValue &root, IngestedJob &out)
    {
        if (!root.isObject())
            return fail(ErrorCode::SchemaError,
                        std::string("document root must be an "
                                    "object, got ") +
                            root.kindName(),
                        root.offset());
        IngestedJob job;
        // A job that states no shots gets the default, capped by the
        // same limit an explicit "shots" must meet.
        job.shots = std::min(job.shots, limits_.maxShots);
        const JsonValue *qobj = root.find("qobj");
        Status status = qobj != nullptr
                            ? lowerEnvelope(root, *qobj, job)
                            : lowerSchedule(root, job);
        if (!status.ok())
            return status;
        out = std::move(job);
        return Status::okStatus();
    }

  private:
    Status
    fail(ErrorCode code, const std::string &detail,
         std::size_t offset) const
    {
        return Status::error(code,
                             detail + locationSuffix(text_, offset));
    }

    /** Fetch a member, requiring `kind`; nullptr when absent. */
    Status
    member(const JsonValue &object, const char *key,
           JsonValue::Kind kind, const JsonValue *&out) const
    {
        out = object.find(key);
        if (out == nullptr)
            return Status::okStatus();
        if (out->kind() != kind) {
            const char *want =
                kind == JsonValue::Kind::Number   ? "number"
                : kind == JsonValue::Kind::String ? "string"
                : kind == JsonValue::Kind::Array  ? "array"
                                                  : "object";
            return fail(ErrorCode::SchemaError,
                        std::string("field \"") + key +
                            "\" must be a " + want + ", got " +
                            out->kindName(),
                        out->offset());
        }
        return Status::okStatus();
    }

    /** Bounded string field with a default. */
    Status
    stringField(const JsonValue &object, const char *key,
                std::string &inout) const
    {
        const JsonValue *value = nullptr;
        Status status =
            member(object, key, JsonValue::Kind::String, value);
        if (!status.ok())
            return status;
        if (value == nullptr)
            return Status::okStatus();
        if (value->string().size() > limits_.maxNameBytes)
            return fail(ErrorCode::SizeLimitExceeded,
                        std::string("field \"") + key +
                            "\" longer than " +
                            std::to_string(limits_.maxNameBytes) +
                            " bytes",
                        value->offset());
        inout = value->string();
        return Status::okStatus();
    }

    /** Integral number field in [lo, hi] with a default. */
    Status
    integerField(const JsonValue &object, const char *key, double lo,
                 double hi, double &inout) const
    {
        const JsonValue *value = nullptr;
        Status status =
            member(object, key, JsonValue::Kind::Number, value);
        if (!status.ok())
            return status;
        if (value == nullptr)
            return Status::okStatus();
        const double number = value->number();
        if (number != std::floor(number))
            return fail(ErrorCode::SchemaError,
                        std::string("field \"") + key +
                            "\" must be an integer",
                        value->offset());
        if (number < lo || number > hi)
            return fail(ErrorCode::NumberOutOfRange,
                        std::string("field \"") + key + "\" = " +
                            std::to_string(number) + " outside [" +
                            std::to_string(lo) + ", " +
                            std::to_string(hi) + "]",
                        value->offset());
        inout = number;
        return Status::okStatus();
    }

    /** Reject members outside `allowed` (defensive boundary). */
    Status
    checkFields(const JsonValue &object,
                const std::vector<std::string_view> &allowed) const
    {
        for (const JsonValue::Member &m : object.members()) {
            bool known = false;
            for (std::string_view a : allowed)
                if (m.first == a) {
                    known = true;
                    break;
                }
            if (!known)
                return fail(ErrorCode::UnknownField,
                            "unknown field \"" + m.first + "\"",
                            m.second.offset());
        }
        return Status::okStatus();
    }

    Status
    lowerEnvelope(const JsonValue &root, const JsonValue &qobj,
                  IngestedJob &job)
    {
        Status fields = checkFields(
            root, {"qobj", "shots", "seed", "priority", "tenant",
                   "backend", "key"});
        if (!fields.ok())
            return fields;
        if (!qobj.isObject())
            return fail(ErrorCode::SchemaError,
                        std::string("field \"qobj\" must be an "
                                    "object, got ") +
                            qobj.kindName(),
                        qobj.offset());

        double shots = static_cast<double>(job.shots);
        Status status = integerField(
            root, "shots", 1.0,
            static_cast<double>(limits_.maxShots), shots);
        if (!status.ok())
            return status;
        job.shots = static_cast<long>(shots);

        // Seeds are transported as JSON numbers, so the usable range
        // is the exactly-representable doubles [0, 2^53).
        double seed = static_cast<double>(job.seed);
        status = integerField(root, "seed", 0.0, 9007199254740991.0,
                              seed);
        if (!status.ok())
            return status;
        job.seed = static_cast<std::uint64_t>(seed);

        double priority = static_cast<double>(job.priority);
        status = integerField(root, "priority", -100.0, 100.0,
                              priority);
        if (!status.ok())
            return status;
        job.priority = static_cast<int>(priority);

        status = stringField(root, "tenant", job.tenant);
        if (!status.ok())
            return status;
        status = stringField(root, "backend", job.backend);
        if (!status.ok())
            return status;
        status = stringField(root, "key", job.key);
        if (!status.ok())
            return status;
        return lowerSchedule(qobj, job);
    }

    Status
    lowerSchedule(const JsonValue &object, IngestedJob &job)
    {
        Status fields = checkFields(
            object, {"name", "duration", "instructions"});
        if (!fields.ok())
            return fields;

        Status status = stringField(object, "name", job.name);
        if (!status.ok())
            return status;
        job.schedule.setName(job.name);

        // "duration" is accepted for round-trip compatibility but
        // recomputed from the instructions; only its type is checked.
        const JsonValue *duration = nullptr;
        status = member(object, "duration",
                        JsonValue::Kind::Number, duration);
        if (!status.ok())
            return status;

        const JsonValue *instructions = nullptr;
        status = member(object, "instructions",
                        JsonValue::Kind::Array, instructions);
        if (!status.ok())
            return status;
        if (instructions == nullptr)
            return fail(ErrorCode::SchemaError,
                        "missing required field \"instructions\"",
                        object.offset());
        if (instructions->items().size() > limits_.maxInstructions)
            return fail(ErrorCode::SizeLimitExceeded,
                        "schedule has " +
                            std::to_string(
                                instructions->items().size()) +
                            " instructions (limit " +
                            std::to_string(limits_.maxInstructions) +
                            ")",
                        instructions->offset());

        for (const JsonValue &entry : instructions->items()) {
            status = lowerInstruction(entry, job.schedule);
            if (!status.ok())
                return status;
        }
        return Status::okStatus();
    }

    Status
    parseChannel(const JsonValue &value, Channel &out) const
    {
        const std::string &name = value.string();
        const bool shaped =
            name.size() >= 2 && name.size() <= 20 &&
            (name[0] == 'd' || name[0] == 'u' || name[0] == 'm' ||
             name[0] == 'a');
        bool digits = shaped;
        for (std::size_t i = 1; digits && i < name.size(); ++i)
            digits = name[i] >= '0' && name[i] <= '9';
        if (!digits)
            return fail(ErrorCode::SchemaError,
                        "channel \"" + name +
                            "\" is not d<i>/u<i>/m<i>/a<i>",
                        value.offset());
        unsigned long long index = 0;
        for (std::size_t i = 1; i < name.size(); ++i) {
            index = index * 10 +
                    static_cast<unsigned long long>(name[i] - '0');
            if (index > limits_.maxChannelIndex)
                return fail(ErrorCode::NumberOutOfRange,
                            "channel index of \"" + name +
                                "\" exceeds " +
                                std::to_string(
                                    limits_.maxChannelIndex),
                            value.offset());
        }
        switch (name[0]) {
          case 'd': out = driveChannel(index); break;
          case 'u': out = controlChannel(index); break;
          case 'm': out = measureChannel(index); break;
          default:  out = acquireChannel(index); break;
        }
        return Status::okStatus();
    }

    Status
    lowerInstruction(const JsonValue &entry, Schedule &schedule)
    {
        if (!entry.isObject())
            return fail(ErrorCode::SchemaError,
                        std::string("instruction must be an object, "
                                    "got ") +
                            entry.kindName(),
                        entry.offset());
        Status fields = checkFields(
            entry, {"t0", "ch", "name", "pulse", "duration", "phase",
                    "frequency", "samples"});
        if (!fields.ok())
            return fields;

        const JsonValue *name = nullptr;
        Status status =
            member(entry, "name", JsonValue::Kind::String, name);
        if (!status.ok())
            return status;
        if (name == nullptr)
            return fail(ErrorCode::SchemaError,
                        "instruction missing required field "
                        "\"name\"",
                        entry.offset());

        const JsonValue *ch = nullptr;
        status = member(entry, "ch", JsonValue::Kind::String, ch);
        if (!status.ok())
            return status;
        if (ch == nullptr)
            return fail(ErrorCode::SchemaError,
                        "instruction missing required field \"ch\"",
                        entry.offset());
        Channel channel{ChannelKind::Drive, 0};
        status = parseChannel(*ch, channel);
        if (!status.ok())
            return status;

        // t0 may be negative: NegativeTime belongs to the
        // validateSchedule gate, not the boundary. Only the magnitude
        // budget is enforced here.
        double t0 = 0.0;
        status = integerField(
            entry, "t0", -static_cast<double>(limits_.maxTime),
            static_cast<double>(limits_.maxTime), t0);
        if (!status.ok())
            return status;

        double duration = 0.0;
        status = integerField(entry, "duration", 0.0,
                              static_cast<double>(limits_.maxTime),
                              duration);
        if (!status.ok())
            return status;

        PulseInstruction inst;
        inst.channel = channel;
        inst.startTime = static_cast<long>(t0);
        const std::string &kind = name->string();

        if (kind == "play") {
            std::string pulse_name = "sampled";
            status = stringField(entry, "pulse", pulse_name);
            if (!status.ok())
                return status;
            const JsonValue *samples = nullptr;
            status = member(entry, "samples", JsonValue::Kind::Array,
                            samples);
            if (!status.ok())
                return status;
            if (samples == nullptr)
                return fail(ErrorCode::SchemaError,
                            "play instruction missing required "
                            "field \"samples\"",
                            entry.offset());
            if (samples->items().size() > limits_.maxSamples)
                return fail(
                    ErrorCode::SizeLimitExceeded,
                    "play has " +
                        std::to_string(samples->items().size()) +
                        " samples (limit " +
                        std::to_string(limits_.maxSamples) + ")",
                    samples->offset());
            std::vector<Complex> envelope;
            envelope.reserve(samples->items().size());
            for (const JsonValue &pair : samples->items()) {
                if (!pair.isArray() || pair.items().size() != 2 ||
                    !pair.items()[0].isNumber() ||
                    !pair.items()[1].isNumber())
                    return fail(ErrorCode::SchemaError,
                                "sample must be a [re, im] number "
                                "pair",
                                pair.offset());
                envelope.emplace_back(pair.items()[0].number(),
                                      pair.items()[1].number());
            }
            inst.kind = PulseInstructionKind::Play;
            inst.waveform = std::make_shared<SampledWaveform>(
                std::move(envelope), pulse_name);
            inst.duration = inst.waveform->duration();
        } else if (kind == "fc") {
            const JsonValue *phase = nullptr;
            status = member(entry, "phase", JsonValue::Kind::Number,
                            phase);
            if (!status.ok())
                return status;
            if (phase == nullptr)
                return fail(ErrorCode::SchemaError,
                            "fc instruction missing required field "
                            "\"phase\"",
                            entry.offset());
            inst.kind = PulseInstructionKind::ShiftPhase;
            inst.phase = phase->number();
        } else if (kind == "sf") {
            const JsonValue *frequency = nullptr;
            status = member(entry, "frequency",
                            JsonValue::Kind::Number, frequency);
            if (!status.ok())
                return status;
            if (frequency == nullptr)
                return fail(ErrorCode::SchemaError,
                            "sf instruction missing required field "
                            "\"frequency\"",
                            entry.offset());
            inst.kind = PulseInstructionKind::ShiftFrequency;
            inst.frequencyGhz = frequency->number();
        } else if (kind == "delay" || kind == "acquire") {
            if (entry.find("duration") == nullptr)
                return fail(ErrorCode::SchemaError,
                            kind + " instruction missing required "
                                   "field \"duration\"",
                            entry.offset());
            inst.kind = kind == "delay"
                            ? PulseInstructionKind::Delay
                            : PulseInstructionKind::Acquire;
            inst.duration = static_cast<long>(duration);
        } else {
            return fail(ErrorCode::SchemaError,
                        "unknown instruction \"" + kind +
                            "\" (expected play/fc/sf/delay/acquire)",
                        name->offset());
        }
        schedule.addInstruction(std::move(inst));
        return Status::okStatus();
    }

    std::string_view text_;
    const IngestLimits &limits_;
};

} // namespace

Status
lowerJob(const JsonValue &root, std::string_view text,
         const IngestLimits &limits, IngestedJob &out)
{
    Lowerer lowerer(text, limits);
    return lowerer.lower(root, out);
}

Status
parseJob(std::string_view text, const IngestLimits &limits,
         IngestedJob &out)
{
    static telemetry::Counter &parse_calls =
        telemetry::MetricsRegistry::global().counter(
            "ingest.parse.calls");
    static telemetry::Counter &parse_rejects =
        telemetry::MetricsRegistry::global().counter(
            "ingest.parse.rejects");
    telemetry::TraceSpan span("ingest.parse");
    parse_calls.increment();
    JsonValue root;
    Status status = parseJson(text, limits.json, root);
    if (status.ok())
        status = lowerJob(root, text, limits, out);
    if (!status.ok())
        parse_rejects.increment();
    return status;
}

} // namespace ingest
} // namespace qpulse
