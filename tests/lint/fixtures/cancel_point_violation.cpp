// lbmib-missing-cancel-point must flag unbounded loops with no
// cancellation poll, heartbeat, or cancellable blocking call.
//
// CHECK: lbmib-missing-cancel-point
// EXPECT: unbounded loop has no cancel_point(), heartbeat, or cancellable blocking call

int poll_flag();
void step_once();

void spin_forever() {
  for (;;) {
    if (poll_flag()) break;
    step_once();
  }
}
