// Unbounded loops that poll cancellation, beat the progress board, or
// block on a cancellable primitive must pass lbmib-missing-cancel-point.
//
// CHECK: lbmib-missing-cancel-point
// EXPECT-CLEAN

int poll_flag();
void step_once();

void worker_loop() {
  for (;;) {
    lbmib::cancel_point("worker:loop");
    if (poll_flag()) break;
    step_once();
  }
}

void heartbeat_loop() {
  while (true) {
    lbmib::ProgressBoard::global().beat("drain:loop");
    if (poll_flag()) break;
  }
}

void drain(lbmib::Channel<int>& ch) {
  while (true) {
    int msg = 0;
    if (!ch.recv(msg)) break;  // cancellable blocking receive
    step_once();
  }
}
