#include "fault/injector.h"

#include "common/hash.h"

namespace dvs {
namespace fault {

namespace {

/// Final avalanche over the FNV-combined decision words (SplitMix64-style
/// finisher). FNV alone clusters in the low bits; the decision must use the
/// high bits uniformly so `probability` maps linearly to fire rate.
uint64_t Finish(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform in [0,1) from (seed, site, scope, counter).
double Decide(uint64_t seed, std::string_view site, std::string_view scope,
              uint64_t counter) {
  uint64_t h = HashCombine(HashUint64(seed),
                           HashBytes(site.data(), site.size()));
  h = HashCombine(h, HashBytes(scope.data(), scope.size()));
  h = Finish(HashCombine(h, HashUint64(counter)));
  // 53 high bits -> double in [0,1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

void FaultInjector::Arm(const std::string& site, SiteConfig config) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  state.config = std::move(config);
  state.stats = SiteStats{};
  state.scope_evals.clear();
  state.burst_left.clear();
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.erase(site);
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
}

std::optional<InjectedFault> FaultInjector::Evaluate(std::string_view site,
                                                     std::string_view scope) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return std::nullopt;
  SiteState& state = it->second;
  const SiteConfig& cfg = state.config;

  if (!cfg.scope_filter.empty() &&
      scope.find(cfg.scope_filter) == std::string_view::npos) {
    return std::nullopt;
  }

  state.stats.evaluations += 1;
  // The counter advances for every in-filter evaluation, fire or not, so the
  // decision stream for a scope depends only on how many times that scope
  // has been evaluated — not on what other scopes did in between.
  uint64_t counter;
  {
    auto [ev, inserted] = state.scope_evals.try_emplace(std::string(scope), 0);
    counter = ev->second++;
  }

  bool fire = false;
  auto burst_it = state.burst_left.find(scope);
  if (burst_it != state.burst_left.end()) {
    fire = true;
    if (--burst_it->second <= 0) state.burst_left.erase(burst_it);
  } else if (cfg.max_fires >= 0 &&
             state.stats.fires >= static_cast<uint64_t>(cfg.max_fires)) {
    fire = false;
  } else if (Decide(seed_, site, scope, counter) < cfg.probability) {
    fire = true;
    if (cfg.burst > 1) state.burst_left[std::string(scope)] = cfg.burst - 1;
  }
  if (!fire) return std::nullopt;

  state.stats.fires += 1;
  InjectedFault fault;
  fault.code = cfg.code;
  fault.kind = cfg.kind;
  fault.message = cfg.message;
  fault.message += " [site=";
  fault.message += site;
  if (!scope.empty()) {
    fault.message += " scope=";
    fault.message += scope;
  }
  fault.message += "]";
  return fault;
}

Status FaultInjector::Check(std::string_view site, std::string_view scope) {
  auto fault = Evaluate(site, scope);
  if (!fault) return OkStatus();
  return fault->ToStatus();
}

FaultInjector::SiteStats FaultInjector::site_stats(
    const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? SiteStats{} : it->second.stats;
}

uint64_t FaultInjector::total_fires() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [name, state] : sites_) total += state.stats.fires;
  return total;
}

}  // namespace fault
}  // namespace dvs
