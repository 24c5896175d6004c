#include "runtime/timer_slack.h"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace aqua::runtime {

void use_precise_timers() {
#if defined(__linux__)
  // Failure leaves the default slack: timings get coarser, nothing breaks.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

}  // namespace aqua::runtime
