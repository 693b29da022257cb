#include "util/fault_point.hpp"

#if PPSCAN_FAULTS_ENABLED

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>

#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/thread_safety.hpp"

namespace ppscan::fault {
namespace {

// One armed site. `hits`/`fires` are atomic because maybe_fire() runs on
// worker threads concurrently; the Spec and Rng are protected by
// the per-site mutex (a fault path is never hot, so a mutex is fine — the
// cold path only exists in PPSCAN_FAULTS=ON builds to begin with).
struct Site {
  // guards: spec, rng — re-arming races against concurrent dice rolls.
  CheckedMutex site_mu;
  Spec spec PPSCAN_GUARDED_BY(site_mu);
  Rng rng PPSCAN_GUARDED_BY(site_mu) = Rng(0);
  std::atomic<std::uint64_t> hits{0};   // protocol: relaxed-counter
  std::atomic<std::uint64_t> fires{0};  // protocol: relaxed-counter
};

struct Registry {
  // guards: sites, env_loaded — the site map and the lazy env-arm flag.
  CheckedMutex registry_mu;
  // unique_ptr so Site addresses are stable across map rehashes; maybe_fire
  // holds only the registry lock while *finding* the site, then the site's
  // own lock while rolling the dice.
  std::map<std::string, std::unique_ptr<Site>> sites
      PPSCAN_GUARDED_BY(registry_mu);
  bool env_loaded PPSCAN_GUARDED_BY(registry_mu) = false;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

// "site:action[:k=v]..." → armed Spec. Returns "" or a parse error.
std::string parse_one(const std::string& entry, std::string& site_out,
                      Spec& spec_out) {
  const auto first_colon = entry.find(':');
  if (first_colon == std::string::npos || first_colon == 0) {
    return "fault spec '" + entry + "': expected <site>:<action>";
  }
  site_out = entry.substr(0, first_colon);
  Spec spec;
  std::size_t pos = first_colon + 1;
  bool have_action = false;
  while (pos <= entry.size()) {
    auto next = entry.find(':', pos);
    if (next == std::string::npos) next = entry.size();
    const std::string field = entry.substr(pos, next - pos);
    pos = next + 1;
    if (field.empty()) continue;
    const auto eq = field.find('=');
    const std::string key = field.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? std::string() : field.substr(eq + 1);
    try {
      if (!have_action) {
        have_action = true;
        if (key == "throw") {
          spec.action = Action::Throw;
        } else if (key == "bad-alloc") {
          spec.action = Action::BadAlloc;
        } else if (key == "sleep-ms") {
          spec.action = Action::Sleep;
          spec.sleep_ms = static_cast<std::uint32_t>(std::stoul(val));
        } else {
          return "fault spec '" + entry + "': unknown action '" + key + "'";
        }
      } else if (key == "p") {
        spec.probability = std::stod(val);
        if (spec.probability < 0.0 || spec.probability > 1.0) {
          return "fault spec '" + entry + "': p must be in [0,1]";
        }
      } else if (key == "skip") {
        spec.skip_first = std::stoull(val);
      } else if (key == "max") {
        spec.max_fires = std::stoull(val);
      } else if (key == "seed") {
        spec.seed = std::stoull(val);
      } else {
        return "fault spec '" + entry + "': unknown field '" + key + "'";
      }
    } catch (const std::exception&) {
      return "fault spec '" + entry + "': bad value for '" + key + "'";
    }
  }
  if (!have_action) {
    return "fault spec '" + entry + "': missing action";
  }
  spec_out = spec;
  return "";
}

// Arms `site` inside `reg` (registry lock must be held).
void arm_locked(Registry& reg, const std::string& site, const Spec& spec)
    PPSCAN_REQUIRES(reg.registry_mu) {
  auto& slot = reg.sites[site];
  if (!slot) slot = std::make_unique<Site>();
  CheckedLock site_lock(slot->site_mu);
  slot->spec = spec;
  slot->rng = Rng(spec.seed);
  slot->hits.store(0, std::memory_order_relaxed);
  slot->fires.store(0, std::memory_order_relaxed);
}

// Loads PPSCAN_FAULT once per process (and again after reset()). A parse
// error is fatal by design: a chaos lane with a typo'd spec must fail
// loudly, not run a clean build and report green.
void load_env_locked(Registry& reg) PPSCAN_REQUIRES(reg.registry_mu) {
  if (reg.env_loaded) return;
  reg.env_loaded = true;
  const auto text = env_string("PPSCAN_FAULT");
  if (!text.has_value() || text->empty()) return;
  std::size_t pos = 0;
  while (pos <= text->size()) {
    auto next = text->find(';', pos);
    if (next == std::string::npos) next = text->size();
    const std::string entry = text->substr(pos, next - pos);
    pos = next + 1;
    if (entry.empty()) continue;
    std::string site;
    Spec spec;
    const std::string err = parse_one(entry, site, spec);
    if (!err.empty()) {
      throw std::invalid_argument("PPSCAN_FAULT: " + err);
    }
    arm_locked(reg, site, spec);
  }
}

}  // namespace

void arm(const std::string& site, const Spec& spec) {
  Registry& reg = registry();
  CheckedLock lock(reg.registry_mu);
  load_env_locked(reg);
  arm_locked(reg, site, spec);
}

std::string arm_from_string(const std::string& text) {
  Registry& reg = registry();
  CheckedLock lock(reg.registry_mu);
  load_env_locked(reg);
  std::size_t pos = 0;
  while (pos <= text.size()) {
    auto next = text.find(';', pos);
    if (next == std::string::npos) next = text.size();
    const std::string entry = text.substr(pos, next - pos);
    pos = next + 1;
    if (entry.empty()) continue;
    std::string site;
    Spec spec;
    const std::string err = parse_one(entry, site, spec);
    if (!err.empty()) return err;
    arm_locked(reg, site, spec);
  }
  return "";
}

void reset() {
  Registry& reg = registry();
  CheckedLock lock(reg.registry_mu);
  reg.sites.clear();
  // Mark the env as already consumed: after an explicit reset() the test
  // owns the arming, and a lane-wide PPSCAN_FAULT must not re-poison it.
  reg.env_loaded = true;
}

std::uint64_t fire_count(const std::string& site) {
  Registry& reg = registry();
  CheckedLock lock(reg.registry_mu);
  const auto it = reg.sites.find(site);
  if (it == reg.sites.end()) return 0;
  return it->second->fires.load(std::memory_order_relaxed);
}

std::vector<std::string> fired_sites() {
  Registry& reg = registry();
  CheckedLock lock(reg.registry_mu);
  std::vector<std::string> out;
  for (const auto& [name, site] : reg.sites) {
    if (site->fires.load(std::memory_order_relaxed) > 0) out.push_back(name);
  }
  return out;
}

void maybe_fire(const char* site) {
  Registry& reg = registry();
  Site* found = nullptr;
  {
    CheckedLock lock(reg.registry_mu);
    load_env_locked(reg);
    const auto it = reg.sites.find(site);
    if (it == reg.sites.end()) return;
    found = it->second.get();
  }
  Action action = Action::Throw;
  std::uint32_t sleep_ms = 0;
  {
    CheckedLock site_lock(found->site_mu);
    const std::uint64_t hit =
        found->hits.fetch_add(1, std::memory_order_relaxed);
    if (hit < found->spec.skip_first) return;
    if (found->fires.load(std::memory_order_relaxed) >=
        found->spec.max_fires) {
      return;
    }
    if (found->spec.probability < 1.0 &&
        !found->rng.next_bool(found->spec.probability)) {
      return;
    }
    found->fires.fetch_add(1, std::memory_order_relaxed);
    action = found->spec.action;
    sleep_ms = found->spec.sleep_ms;
  }
  switch (action) {
    case Action::Throw:
      throw std::runtime_error(std::string("fault-point ") + site);
    case Action::BadAlloc:
      throw std::bad_alloc();
    case Action::Sleep:
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      return;
  }
}

}  // namespace ppscan::fault

#endif  // PPSCAN_FAULTS_ENABLED
