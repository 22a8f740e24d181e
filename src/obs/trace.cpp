#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "parallel/mutex.hpp"

namespace lbmib::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// One thread's ring. `pushed`/`generation` are atomics only to give
/// the post-join drain an acquire edge over the owner's plain slot
/// writes; the owner is the sole writer.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::string name;
  std::vector<SpanEvent> ring;
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> generation{0};
};

struct Registry {
  Mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives exiting threads
  return *r;
}

// Session state. `generation` distinguishes sessions so stale rings of
// earlier sessions are ignored by drain() and lazily re-armed by their
// owners on the next push.
std::atomic<std::uint64_t> g_generation{0};
std::atomic<std::uint64_t> g_capacity{Tracer::kDefaultCapacity};
Clock::time_point g_epoch{};

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& r = registry();
    MutexLock lock(r.mutex);
    b->tid = static_cast<std::uint32_t>(r.buffers.size());
    b->name = "thread-" + std::to_string(b->tid);
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

const char* to_string(SpanCat cat) {
  switch (cat) {
    case SpanCat::kStep:
      return "step";
    case SpanCat::kKernel:
      return "kernel";
    case SpanCat::kBarrier:
      return "barrier";
    case SpanCat::kHalo:
      return "halo";
    case SpanCat::kCheckpoint:
      return "checkpoint";
    case SpanCat::kOther:
      return "other";
  }
  return "?";
}

std::atomic<bool> Tracer::g_active{false};

void Tracer::start(Size events_per_thread) {
  if (events_per_thread == 0) events_per_thread = 1;
  stop();
  g_capacity.store(events_per_thread, std::memory_order_relaxed);
  g_epoch = Clock::now();
  g_generation.fetch_add(1, std::memory_order_relaxed);
  g_active.store(true, std::memory_order_release);
}

void Tracer::stop() { g_active.store(false, std::memory_order_release); }

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - g_epoch)
      .count();
}

namespace {

/// The calling thread's ring, armed for the current session (the first
/// span of a session on a thread allocates and clears the ring).
ThreadBuffer& armed_buffer() {
  ThreadBuffer& b = local_buffer();
  const std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
  if (b.generation.load(std::memory_order_relaxed) != gen) {
    b.ring.assign(g_capacity.load(std::memory_order_relaxed), SpanEvent{});
    b.pushed.store(0, std::memory_order_relaxed);
    b.generation.store(gen, std::memory_order_relaxed);
  }
  return b;
}

}  // namespace

void Tracer::arm_thread() { armed_buffer(); }

void record_span(SpanCat cat, const char* name, std::int64_t start_ns,
                 std::int64_t dur_ns, std::int64_t arg) {
  if (!Tracer::active()) return;
  ThreadBuffer& b = armed_buffer();
  const std::uint64_t n = b.pushed.load(std::memory_order_relaxed);
  SpanEvent& slot = b.ring[n % b.ring.size()];
  slot.start_ns = start_ns;
  slot.dur_ns = dur_ns;
  slot.arg = arg;
  slot.name = name;
  slot.tid = b.tid;
  slot.cat = cat;
  b.pushed.store(n + 1, std::memory_order_release);
}

std::vector<SpanEvent> Tracer::drain() {
  const std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
  std::vector<SpanEvent> out;
  Registry& r = registry();
  MutexLock lock(r.mutex);
  for (const auto& b : r.buffers) {
    if (b->generation.load(std::memory_order_relaxed) != gen) continue;
    const std::uint64_t n = b->pushed.load(std::memory_order_acquire);
    const std::uint64_t cap = b->ring.size();
    const std::uint64_t kept = std::min(n, cap);
    // Oldest surviving event first: after a wrap the ring's oldest slot
    // is at n % cap.
    const std::uint64_t first = n > cap ? n % cap : 0;
    for (std::uint64_t i = 0; i < kept; ++i) {
      out.push_back(b->ring[(first + i) % cap]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

Size Tracer::dropped() {
  const std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
  Size lost = 0;
  Registry& r = registry();
  MutexLock lock(r.mutex);
  for (const auto& b : r.buffers) {
    if (b->generation.load(std::memory_order_relaxed) != gen) continue;
    const std::uint64_t n = b->pushed.load(std::memory_order_acquire);
    const std::uint64_t cap = b->ring.size();
    if (n > cap) lost += static_cast<Size>(n - cap);
  }
  return lost;
}

void Tracer::set_thread_name(const std::string& name) {
  ThreadBuffer& b = local_buffer();
  Registry& r = registry();
  MutexLock lock(r.mutex);
  b.name = name;
}

std::vector<std::pair<std::uint32_t, std::string>> Tracer::thread_names() {
  const std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
  std::vector<std::pair<std::uint32_t, std::string>> out;
  Registry& r = registry();
  MutexLock lock(r.mutex);
  for (const auto& b : r.buffers) {
    if (b->generation.load(std::memory_order_relaxed) != gen) continue;
    out.emplace_back(b->tid, b->name);
  }
  return out;
}

}  // namespace lbmib::obs
