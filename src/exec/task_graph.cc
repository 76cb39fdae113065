#include "exec/task_graph.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "exec/thread_pool.h"

namespace cods {

// Shared state of one Run. Held by shared_ptr so helper tasks that fire
// after the run already finished (every graph task was claimed by faster
// threads) find valid, exhausted state — the same lifetime pattern as
// ParallelFor's RegionState. A helper dereferences `graph` only after
// popping a task id, and a popped task always finishes before Run
// returns, so the graph itself is alive whenever it is touched.
struct TaskGraph::RunState {
  TaskGraph* graph = nullptr;
  ThreadPool* pool = nullptr;  // null: serial run, pool untouched

  // Lock-free per-task scheduling state.
  std::vector<std::atomic<int>> pending;      // unfinished dependencies
  std::vector<std::atomic<int>> poisoned_by;  // failing dep id, or -1
  std::vector<double> seconds;                // per-task run time (slots)
  std::atomic<int> helper_slots{0};           // free helper budget
  std::atomic<int> in_flight{0};
  std::atomic<int> max_parallel{0};
  std::atomic<uint64_t> ran{0};
  std::atomic<uint64_t> skipped{0};

  // Ready queue and completion tracking.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> ready;
  uint64_t completed = 0;
  bool all_done = false;

  explicit RunState(size_t n)
      : pending(n), poisoned_by(n), seconds(n, 0.0) {
    for (auto& p : poisoned_by) p.store(-1, std::memory_order_relaxed);
  }
};

// The caller's loop: parks on the queue between bursts, returns only
// when the whole run is complete. `graph` is dereferenced only while a
// popped task is outstanding, which keeps Run() from returning.
void TaskGraph::DrainReadyQueue(const std::shared_ptr<RunState>& st) {
  std::unique_lock<std::mutex> lock(st->mu);
  for (;;) {
    st->cv.wait(lock, [&] { return st->all_done || !st->ready.empty(); });
    if (st->ready.empty()) return;  // all_done
    int id = st->ready.front();
    st->ready.pop_front();
    lock.unlock();
    st->graph->ExecuteTask(st.get(), id);
    MaybeSubmitHelpers(st);
    lock.lock();
  }
}

// A pool helper's loop: never parks — when the queue runs dry it frees
// its slot and returns, handing its pool worker back to whatever nested
// ParallelFor regions the running tasks spawn. Completing a task that
// readies successors re-submits helpers for them.
void TaskGraph::HelperDrain(const std::shared_ptr<RunState>& st) {
  for (;;) {
    int id;
    {
      std::lock_guard<std::mutex> lock(st->mu);
      if (st->ready.empty()) break;
      id = st->ready.front();
      st->ready.pop_front();
    }
    st->graph->ExecuteTask(st.get(), id);
    MaybeSubmitHelpers(st);
  }
  st->helper_slots.fetch_add(1, std::memory_order_relaxed);
}

void TaskGraph::MaybeSubmitHelpers(const std::shared_ptr<RunState>& st) {
  if (st->pool == nullptr) return;
  size_t waiting;
  {
    std::lock_guard<std::mutex> lock(st->mu);
    waiting = st->ready.size();
  }
  while (waiting > 0) {
    int slots = st->helper_slots.load(std::memory_order_relaxed);
    if (slots <= 0) return;
    if (!st->helper_slots.compare_exchange_weak(
            slots, slots - 1, std::memory_order_relaxed)) {
      continue;
    }
    st->pool->Submit([st] { HelperDrain(st); });
    --waiting;
  }
}

int TaskGraph::AddTask(TaskFn fn, std::string label) {
  CODS_CHECK(!ran_) << "TaskGraph mutated after Run";
  CODS_CHECK(fn != nullptr);
  tasks_.push_back(Task{std::move(fn), std::move(label), {}, 0});
  return static_cast<int>(tasks_.size()) - 1;
}

void TaskGraph::AddDependency(int task, int dependency) {
  CODS_CHECK(!ran_) << "TaskGraph mutated after Run";
  CODS_CHECK(task >= 0 && static_cast<size_t>(task) < tasks_.size());
  CODS_CHECK(dependency >= 0 &&
             static_cast<size_t>(dependency) < tasks_.size());
  CODS_CHECK(task != dependency) << "task depends on itself";
  tasks_[static_cast<size_t>(dependency)].dependents.push_back(task);
  tasks_[static_cast<size_t>(task)].num_deps += 1;
  stats_.edges += 1;
}

const Status& TaskGraph::task_status(int id) const {
  CODS_CHECK(id >= 0 && static_cast<size_t>(id) < statuses_.size());
  return statuses_[static_cast<size_t>(id)];
}

void TaskGraph::ExecuteTask(RunState* st, int id) {
  const size_t i = static_cast<size_t>(id);
  int cur = st->in_flight.fetch_add(1, std::memory_order_relaxed) + 1;
  int prev = st->max_parallel.load(std::memory_order_relaxed);
  while (cur > prev &&
         !st->max_parallel.compare_exchange_weak(
             prev, cur, std::memory_order_relaxed)) {
  }

  int poison = st->poisoned_by[i].load(std::memory_order_acquire);
  if (poison >= 0) {
    std::string who = "task #" + std::to_string(poison);
    const std::string& label = tasks_[static_cast<size_t>(poison)].label;
    if (!label.empty()) who += " (" + label + ")";
    statuses_[i] = Status::Cancelled("skipped: dependency " + who +
                                     " did not succeed");
    st->skipped.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Per-task runtime feeds TaskGraphStats only; it never influences
    // scheduling order or results.
    const Stopwatch task_clock;
    statuses_[i] = tasks_[i].fn();
    st->seconds[i] = task_clock.ElapsedSeconds();
    st->ran.fetch_add(1, std::memory_order_relaxed);
  }
  st->in_flight.fetch_sub(1, std::memory_order_relaxed);

  // Unblock dependents: a failed or skipped task poisons them (first
  // poisoner wins), and whoever completes a dependent's last dependency
  // schedules it.
  const bool ok = statuses_[i].ok();
  std::vector<int> newly_ready;
  for (int d : tasks_[i].dependents) {
    const size_t di = static_cast<size_t>(d);
    if (!ok) {
      int expected = -1;
      st->poisoned_by[di].compare_exchange_strong(
          expected, id, std::memory_order_release);
    }
    if (st->pending[di].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      newly_ready.push_back(d);
    }
  }
  {
    std::lock_guard<std::mutex> lock(st->mu);
    for (int d : newly_ready) st->ready.push_back(d);
    st->completed += 1;
    if (st->completed == tasks_.size()) {
      st->all_done = true;
      st->cv.notify_all();
    } else if (!newly_ready.empty()) {
      st->cv.notify_all();
    }
  }
}

Status TaskGraph::Run(const ExecContext& ctx) {
  CODS_CHECK(!ran_) << "TaskGraph::Run called twice";
  ran_ = true;
  const size_t n = tasks_.size();
  statuses_.assign(n, Status::OK());
  stats_.tasks = n;
  stats_.threads = ctx.num_threads();
  stats_.max_parallel = 0;
  if (n == 0) return Status::OK();
  const Stopwatch wall_clock;  // feeds TaskGraphStats only

  // Cycle check (Kahn's algorithm) before anything executes: a cyclic
  // graph would otherwise stall with a permanently empty ready queue.
  {
    std::vector<int> indegree(n);
    std::deque<int> frontier;
    for (size_t i = 0; i < n; ++i) {
      indegree[i] = tasks_[i].num_deps;
      if (indegree[i] == 0) frontier.push_back(static_cast<int>(i));
    }
    size_t seen = 0;
    while (!frontier.empty()) {
      int id = frontier.front();
      frontier.pop_front();
      ++seen;
      for (int d : tasks_[static_cast<size_t>(id)].dependents) {
        if (--indegree[static_cast<size_t>(d)] == 0) frontier.push_back(d);
      }
    }
    if (seen < n) {
      return Status::InvalidArgument(
          "task graph has a cycle (" + std::to_string(n - seen) +
          " of " + std::to_string(n) + " tasks unreachable)");
    }
  }

  auto st = std::make_shared<RunState>(n);
  st->graph = this;
  {
    std::lock_guard<std::mutex> lock(st->mu);
    for (size_t i = 0; i < n; ++i) {
      st->pending[i].store(tasks_[i].num_deps, std::memory_order_relaxed);
      if (tasks_[i].num_deps == 0) st->ready.push_back(static_cast<int>(i));
    }
  }

  const int threads = ctx.num_threads();
  if (threads > 1 && n > 1) {
    const size_t budget_wanted = n - 1;
    const int budget = static_cast<int>(
        budget_wanted < static_cast<size_t>(threads - 1)
            ? budget_wanted
            : static_cast<size_t>(threads - 1));
    st->pool = SharedPool(budget);
    st->helper_slots.store(budget, std::memory_order_relaxed);
    MaybeSubmitHelpers(st);
  }
  // The caller participates (and is the only worker in the serial case,
  // where the queue drain is a deterministic topological order and the
  // pool is never touched).
  DrainReadyQueue(st);

  stats_.ran = st->ran.load(std::memory_order_relaxed);
  stats_.skipped = st->skipped.load(std::memory_order_relaxed);
  stats_.max_parallel = st->max_parallel.load(std::memory_order_relaxed);
  stats_.task_seconds = 0;
  for (double s : st->seconds) stats_.task_seconds += s;
  stats_.wall_seconds = wall_clock.ElapsedSeconds();

  for (size_t i = 0; i < n; ++i) {
    if (!statuses_[i].ok()) {
      std::string where = "task #" + std::to_string(i);
      if (!tasks_[i].label.empty()) where += " (" + tasks_[i].label + ")";
      return statuses_[i].WithContext(where);
    }
  }
  return Status::OK();
}

}  // namespace cods
