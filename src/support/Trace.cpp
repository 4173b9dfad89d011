#include "support/Trace.h"

#include "support/Diag.h"

#include <algorithm>

using namespace osc;

const char *osc::traceEventName(TraceEvent E) {
  switch (E) {
  case TraceEvent::CaptureMulti:
    return "capture-multi";
  case TraceEvent::CaptureOneShot:
    return "capture-oneshot";
  case TraceEvent::CaptureEmpty:
    return "capture-empty";
  case TraceEvent::Seal:
    return "seal";
  case TraceEvent::InvokeMulti:
    return "invoke-multi";
  case TraceEvent::InvokeOneShot:
    return "invoke-oneshot";
  case TraceEvent::Promote:
    return "promote";
  case TraceEvent::PromoteFlag:
    return "promote-flag";
  case TraceEvent::Overflow:
    return "overflow";
  case TraceEvent::Underflow:
    return "underflow";
  case TraceEvent::Split:
    return "split";
  case TraceEvent::Alloc:
    return "alloc";
  case TraceEvent::GcStart:
    return "gc-start";
  case TraceEvent::GcEnd:
    return "gc-end";
  case TraceEvent::CacheDrop:
    return "cache-drop";
  case TraceEvent::CallCC:
    return "call/cc";
  case TraceEvent::Call1CC:
    return "call/1cc";
  case TraceEvent::WindEnter:
    return "wind-enter";
  case TraceEvent::WindExit:
    return "wind-exit";
  case TraceEvent::SchedSwitch:
    return "sched-switch";
  case TraceEvent::SchedBlock:
    return "sched-block";
  case TraceEvent::SchedWake:
    return "sched-wake";
  case TraceEvent::IoWait:
    return "io-wait";
  case TraceEvent::IoReady:
    return "io-ready";
  case TraceEvent::Accept:
    return "accept";
  case TraceEvent::ChanClose:
    return "chan-close";
  case TraceEvent::IoTimeout:
    return "io-timeout";
  case TraceEvent::IoDrop:
    return "io-drop";
  case TraceEvent::Shed:
    return "shed";
  case TraceEvent::Reset:
    return "reset";
  case TraceEvent::Shift:
    return "shift";
  case TraceEvent::Splice:
    return "splice";
  case TraceEvent::Handle:
    return "handle";
  case TraceEvent::Perform:
    return "perform";
  case TraceEvent::NurseryCancel:
    return "nursery-cancel";
  case TraceEvent::Cache:
    return "cache";
  }
  oscUnreachable("bad TraceEvent");
}

Trace::Trace(uint32_t CapacityEvents)
    : Cap(std::max<uint32_t>(CapacityEvents, 1)) {}

void Trace::start() {
  if (Ring.empty())
    Ring.resize(Cap);
  clear();
  Enabled = true;
}

std::vector<Trace::Record> Trace::snapshot() const {
  std::vector<Record> Out;
  size_t N = size();
  Out.reserve(N);
  uint64_t First = NextSeq - N;
  for (uint64_t S = First; S != NextSeq; ++S)
    Out.push_back(Ring[static_cast<size_t>(S % Cap)]);
  return Out;
}

std::string Trace::toString() const {
  std::string Out;
  if (uint64_t D = dropped())
    Out += "... " + std::to_string(D) + " earlier event(s) dropped\n";
  for (const Record &R : snapshot()) {
    Out += "#" + std::to_string(R.Seq) + " " + traceEventName(R.Kind);
    for (uint8_t I = 0; I != R.NPayload; ++I)
      Out += " " + std::to_string(R.Payload[I]);
    Out += "\n";
  }
  return Out;
}

std::string Trace::toChromeJson() const {
  // Instant events on one synthetic thread; the deterministic sequence
  // number stands in for the timestamp, so the JSON is deterministic too.
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  for (const Record &R : snapshot()) {
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"name\":\"";
    Out += traceEventName(R.Kind);
    Out += "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":" +
           std::to_string(R.Seq) + ",\"args\":{";
    for (uint8_t I = 0; I != R.NPayload; ++I) {
      if (I)
        Out += ",";
      Out += "\"p" + std::to_string(I) + "\":" + std::to_string(R.Payload[I]);
    }
    Out += "}}";
  }
  Out += "],\"displayTimeUnit\":\"ms\"}";
  return Out;
}
