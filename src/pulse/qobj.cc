#include "pulse/qobj.h"

#include <iomanip>
#include <sstream>

namespace qpulse {

namespace {

std::string
fmt(double value, int precision)
{
    std::ostringstream os;
    os << std::setprecision(precision) << value;
    return os.str();
}

} // namespace

std::string
scheduleToQobjJson(const Schedule &schedule,
                   const QobjWriteOptions &options)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"name\": \""
       << (schedule.name().empty() ? "schedule" : schedule.name())
       << "\",\n";
    os << "  \"duration\": " << schedule.duration() << ",\n";
    os << "  \"instructions\": [\n";

    bool first = true;
    for (const auto &inst : schedule.instructions()) {
        if (!first)
            os << ",\n";
        first = false;
        os << "    {\"t0\": " << inst.startTime << ", \"ch\": \""
           << inst.channel.toString() << "\", ";
        switch (inst.kind) {
          case PulseInstructionKind::Play: {
            os << "\"name\": \"play\", \"pulse\": \""
               << inst.waveform->name() << "\", \"duration\": "
               << inst.duration;
            if (options.includeSamples) {
                os << ", \"samples\": [";
                for (long t = 0; t < inst.waveform->duration(); ++t) {
                    const Complex sample = inst.waveform->sample(t);
                    os << (t ? ", " : "") << "["
                       << fmt(sample.real(), options.precision) << ", "
                       << fmt(sample.imag(), options.precision) << "]";
                }
                os << "]";
            }
            break;
          }
          case PulseInstructionKind::ShiftPhase:
            os << "\"name\": \"fc\", \"phase\": "
               << fmt(inst.phase, options.precision);
            break;
          case PulseInstructionKind::ShiftFrequency:
            os << "\"name\": \"sf\", \"frequency\": "
               << fmt(inst.frequencyGhz, options.precision);
            break;
          case PulseInstructionKind::Delay:
            os << "\"name\": \"delay\", \"duration\": "
               << inst.duration;
            break;
          case PulseInstructionKind::Acquire:
            os << "\"name\": \"acquire\", \"duration\": "
               << inst.duration;
            break;
        }
        os << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

} // namespace qpulse
