#include "util/failpoint.h"

#include <cstdlib>
#include <map>
#include <memory>

#include "util/thread_annotations.h"

namespace wcoj {

std::atomic<bool> FailPoints::active_{false};
std::atomic<bool> FailPoints::counting_{false};

namespace {

struct Registry {
  Mutex mu;
  // Node-stable: Register hands out references that must survive any
  // later registration.
  std::map<std::string, std::unique_ptr<FailPoint>> points
      WCOJ_GUARDED_BY(mu);
  int armed_count WCOJ_GUARDED_BY(mu) = 0;  // mirrors FailPoints::active_
};

Registry& GetRegistry() {
  static Registry* r =
      new Registry();  // wcoj-lint: allow(naked-new) -- leak outlives static dtors
  return *r;
}

}  // namespace

bool FailPoint::Evaluate() {
  const uint64_t hit = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!armed_.load(std::memory_order_relaxed)) return false;
  const uint64_t at = fire_at_.load(std::memory_order_relaxed);
  if (hit < at) return false;
  // Consume one firing unless unbounded. A concurrent racer may push
  // times_ below zero; treat anything that was positive or -1 as a fire.
  int64_t t = times_.load(std::memory_order_relaxed);
  if (t == 0) return false;
  if (t > 0) {
    t = times_.fetch_sub(1, std::memory_order_relaxed);
    if (t <= 0) {
      times_.store(0, std::memory_order_relaxed);
      return false;
    }
    if (t == 1) armed_.store(false, std::memory_order_relaxed);
  }
  return true;
}

FailPoint& FailPoints::Register(const std::string& name) {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  auto it = r.points.find(name);
  if (it == r.points.end()) {
    it = r.points.emplace(name, std::make_unique<FailPoint>(name)).first;
  }
  return *it->second;
}

void FailPoints::Arm(const std::string& name, uint64_t k, int64_t times) {
  if (k == 0) k = 1;
  FailPoint& p = Register(name);
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  if (!p.armed_.load(std::memory_order_relaxed)) ++r.armed_count;
  p.hits_.store(0, std::memory_order_relaxed);
  p.fire_at_.store(k, std::memory_order_relaxed);
  p.times_.store(times, std::memory_order_relaxed);
  p.armed_.store(true, std::memory_order_relaxed);
  active_.store(true, std::memory_order_relaxed);
}

void FailPoints::Disarm(const std::string& name) {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  auto it = r.points.find(name);
  if (it == r.points.end()) return;
  if (it->second->armed_.load(std::memory_order_relaxed)) {
    it->second->armed_.store(false, std::memory_order_relaxed);
    it->second->times_.store(0, std::memory_order_relaxed);
    if (r.armed_count > 0) --r.armed_count;
  }
  active_.store(r.armed_count > 0 ||
                    counting_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
}

void FailPoints::DisarmAll() {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  for (auto& [name, p] : r.points) {
    p->armed_.store(false, std::memory_order_relaxed);
    p->times_.store(0, std::memory_order_relaxed);
  }
  r.armed_count = 0;
  active_.store(counting_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
}

void FailPoints::SetCounting(bool on) {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  counting_.store(on, std::memory_order_relaxed);
  active_.store(r.armed_count > 0 || on, std::memory_order_relaxed);
}

uint64_t FailPoints::Hits(const std::string& name) {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  auto it = r.points.find(name);
  return it == r.points.end() ? 0 : it->second->hits();
}

void FailPoints::ResetCounters() {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  for (auto& [name, p] : r.points) {
    p->hits_.store(0, std::memory_order_relaxed);
  }
}

int FailPoints::ArmFromEnv() {
  const char* env = std::getenv("WCOJ_FAILPOINTS");
  if (env == nullptr || *env == '\0') return 0;
  int armed = 0;
  std::string spec(env);
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    const std::string name = entry.substr(0, eq);
    const unsigned long long k =
        std::strtoull(entry.c_str() + eq + 1, nullptr, 10);
    Arm(name, k == 0 ? 1 : static_cast<uint64_t>(k));
    ++armed;
  }
  return armed;
}

}  // namespace wcoj
