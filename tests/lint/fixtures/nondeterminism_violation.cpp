// lbmib-nondeterminism must flag hidden-input randomness, wall-clock
// reads, and pointer-keyed ordered containers.
//
// CHECK: lbmib-nondeterminism
// EXPECT: 'rand' is nondeterministic across runs
// EXPECT: wall-clock read is nondeterministic across runs
// EXPECT: std::random_device draws from the OS entropy pool
// EXPECT: iterates in address order

struct Task {};

int pick() {
  return rand() % 4;
}

void stamp() {
  auto t = std::chrono::system_clock::now();
  (void)t;
}

unsigned hardware_seed() {
  std::random_device rd;
  return rd();
}

std::map<Task*, int> task_priorities;
