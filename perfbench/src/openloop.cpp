#include "openloop.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include "src/serve/protocol.hpp"

namespace perfbench {

using rbpeb::serve::ResponseMessage;

namespace {

bool can_pin() { return sysconf(_SC_NPROCESSORS_ONLN) >= 4; }

void pin_current_thread(std::initializer_list<int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

}  // namespace

std::unique_ptr<rbpeb::serve::Server> start_server(
    const rbpeb::serve::ServerOptions& options) {
  if (!can_pin()) return std::make_unique<rbpeb::serve::Server>(options);
  pin_current_thread({1, 2});  // the workers inherit this mask
  auto server = std::make_unique<rbpeb::serve::Server>(options);
  pin_current_thread({0});
  return server;
}

std::vector<LoopOutcome> run_open_loop(rbpeb::serve::Server& server,
                                       const std::vector<std::string>& lines,
                                       double rate, SpanRecorder& spans,
                                       std::int64_t first_request_id) {
  std::vector<LoopOutcome> outcomes(lines.size());
  std::vector<std::int64_t> stamps(lines.size() * 4);  // sent, parsed, submitted, done

  // Waiters block on the futures in submission order and stamp each answer
  // as it lands; while one waits on a slow answer (a cold solve, a 192-node
  // canonicalization) the other stamps the answers that finish meanwhile.
  // They sleep in the futex, so the workers keep their cores.
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<ResponseMessage>>> queue;
  bool submitting = true;
  const auto waiter = [&] {
    if (can_pin()) pin_current_thread({3});
    for (;;) {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return !queue.empty() || !submitting; });
      if (queue.empty()) return;
      auto [index, future] = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      future.wait();
      stamps[4 * index + 3] = now_ns();
      outcomes[index].response = future.get();
    }
  };
  std::vector<std::thread> waiters;
  for (int k = 0; k < 2; ++k) waiters.emplace_back(waiter);
  // Joins the waiters on every exit path; each drains the queue first, so
  // every submitted request is answered before the loop returns or throws.
  struct Join {
    std::mutex& mutex;
    std::condition_variable& cv;
    bool& submitting;
    std::vector<std::thread>& threads;
    ~Join() {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        submitting = false;
      }
      cv.notify_all();
      for (std::thread& t : threads) t.join();
    }
  };

  // A short lead so request 0 is not already late when the loop starts.
  const std::int64_t start_ns = now_ns() + 500'000;
  {
    const Join join{mutex, cv, submitting, waiters};
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const double due = rate > 0.0 ? due_time(0.0, rate, i) : 0.0;
      const std::int64_t due_ns = start_ns + static_cast<std::int64_t>(due * 1e9);
      // Spin to the due time: a sleep overshoots by ~0.1 ms typically and by
      // milliseconds at the tail, which would read as server latency.
      while (now_ns() < due_ns) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
      const std::int64_t sent_ns = now_ns();
      rbpeb::serve::RequestMessage request = rbpeb::serve::parse_request(lines[i]);
      const std::int64_t parsed_ns = now_ns();
      std::future<ResponseMessage> future = server.submit(std::move(request));
      stamps[4 * i] = sent_ns;
      stamps[4 * i + 1] = parsed_ns;
      stamps[4 * i + 2] = now_ns();
      outcomes[i].sample.due = due;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        queue.emplace_back(i, std::move(future));
      }
      cv.notify_one();
    }
  }

  const auto to_s = [start_ns](std::int64_t ns) {
    return static_cast<double>(ns - start_ns) / 1e9;
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::int64_t* t = &stamps[4 * i];
    LoopOutcome& out = outcomes[i];
    out.sample.sent = to_s(t[0]);
    out.sample.done = to_s(t[3]);
    out.parse_us = static_cast<double>(t[1] - t[0]) / 1e3;
    if (!spans.enabled()) continue;
    const std::int64_t id = first_request_id + static_cast<std::int64_t>(i);
    const std::int64_t due_ns =
        start_ns + static_cast<std::int64_t>(out.sample.due * 1e9);
    const std::int64_t top = spans.add("request", due_ns, t[3], id, -1);
    spans.add("generator.late", due_ns, t[0], id, top);
    spans.add("serve.parse_request", t[0], t[1], id, top);
    spans.add("server.submit", t[1], t[2], id, top);
    spans.add("server.answer", t[2], t[3], id, top);
  }
  return outcomes;
}

double snapshot_histogram(const std::string& snapshot_json,
                          const std::string& histogram,
                          const std::string& field) {
  const auto at = snapshot_json.find("\"" + histogram + "\":{");
  if (at == std::string::npos) return -1.0;
  const auto key = snapshot_json.find("\"" + field + "\":", at);
  const auto end = snapshot_json.find('}', at);
  if (key == std::string::npos || key > end) return -1.0;
  return std::stod(snapshot_json.substr(key + field.size() + 3));
}

}  // namespace perfbench
