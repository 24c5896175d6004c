// Timer slack for the threads the threaded runtime owns.
//
// Linux lets a sleeping thread wake up to its "timer slack" (50 µs by
// default) after the requested instant, so timers can be coalesced. The
// runtime emulates service times and network hops of tens of µs with real
// sleeps; at the default slack a 20 µs sleep takes ~76 µs. The replica's
// t_s is the draw however late its worker wakes (replica::ReplicaCore's
// start rule), but the overshoot still delays its replies and the
// emulated network hops.
#pragma once

namespace aqua::runtime {

/// Set the calling thread's timer slack to 1 ns so its timed waits end on
/// time. Call first thing in every runtime-owned thread that sleeps to
/// emulate a duration. No-op where the platform has no timer slack.
void use_precise_timers();

}  // namespace aqua::runtime
