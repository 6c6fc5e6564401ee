#include "serve/serve_types.h"

#include <algorithm>
#include <cmath>

#include "obs/flight_recorder.h"

namespace activedp {

std::string_view RejectReasonToString(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kShutdown:
      return "shutdown";
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kOverloaded:
      return "overloaded";
    case RejectReason::kQuotaExceeded:
      return "quota-exceeded";
  }
  return "unknown";
}

double RetryAfterMs(double estimated_delay_ms) {
  return std::max(1.0, std::ceil(estimated_delay_ms));
}

bool NoteWindowEvent(int64_t* window_start_us, int* count, int threshold,
                     double window_seconds) {
  if (threshold <= 0) return false;
  const int64_t now = ObsNowMicros();
  const int64_t window_us = static_cast<int64_t>(window_seconds * 1e6);
  if (now - *window_start_us > window_us) {
    *window_start_us = now;
    *count = 0;
  }
  if (++*count < threshold) return false;
  *count = 0;
  return true;
}

void DeferredIncident::Trigger() const {
  (void)FlightRecorder::Global().TriggerIncident(reason);
}

}  // namespace activedp
