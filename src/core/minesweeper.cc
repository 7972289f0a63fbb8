#include "core/minesweeper.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "core/atom_index.h"
#include "core/cds.h"
#include "core/constraint.h"
#include "query/hypergraph.h"
#include "storage/trie.h"

namespace wcoj {

namespace {

constexpr Value kFloor = -1;

// Idea 4: remembers the last gap an atom produced so repeat probes into
// the same region can be answered without touching the index.
struct GapCache {
  bool valid = false;
  int fail_pos = 0;           // atom-local trie depth of the interval
  std::vector<Value> prefix;  // projection values before fail_pos
  Value glb = kNegInf, lub = kPosInf;
  bool at_last_attr = false;
};

class MsRun {
 public:
  MsRun(const MsOptions& ms, const BoundQuery& q, const ExecOptions& opts,
        ExecResult* result)
      : ms_(ms),
        q_(q),
        opts_(opts),
        result_(result),
        poll_(opts),
        indexes_(q, &result->stats, opts.budget) {
    // A failed (budget-refused / fault-injected) index build fails the
    // run closed before any index is probed.
    if (!indexes_.ok()) {
      result_->status = indexes_.status();
      return;
    }
    for (size_t a = 0; a < q.atoms.size(); ++a) {
      atom_vars_.push_back(q.AtomVarsSorted(a));
      // Domain contract, on every column: the frontier floor is -1, and
      // constraint patterns read kWildcard (and above) as a wildcard.
      const TrieIndex& index = *indexes_.at(a);
      if (index.size() == 0) continue;
      for (size_t p = 0; p < atom_vars_[a].size(); ++p) {
        const int col = static_cast<int>(p);
        if (index.ColMin(col) < 0 || index.ColMax(col) >= kWildcard) {
          result_->status = Status(
              StatusCode::kInvalidArgument,
              "minesweeper requires values in [0, " +
                  std::to_string(kWildcard) + ") (atom " + std::to_string(a) +
                  " has keys outside it)");
          return;
        }
      }
    }
    skeleton_.assign(q.atoms.size(), true);
    if (ms.idea7_skeleton) skeleton_ = BetaAcyclicSkeleton(q);
    caches_.resize(q.atoms.size());
    // Union of prefix positions of atoms (and filters) participating at
    // the last depth: the Idea 8 drain soundness mask.
    const int last = q.num_vars - 1;
    for (const auto& vars : atom_vars_) {
      if (!vars.empty() && vars.back() == last) {
        for (int v : vars) {
          if (v < last) last_depth_mask_ |= uint64_t{1} << v;
        }
      }
    }
    for (const auto& [lo, hi] : q.less_than) {
      if (hi == last && lo < last) last_depth_mask_ |= uint64_t{1} << lo;
      if (lo == last && hi < last) last_depth_mask_ |= uint64_t{1} << hi;
    }
  }

  void Run() {
    if (!result_->status.ok()) return;  // refused in the constructor
    Cds::Options cds_options;
    cds_options.idea6_complete_nodes = ms_.idea6_complete_nodes;
    cds_options.completeness_blocked = CompletenessBlockedDepths();
    // Draw the CDS from the caller's warm per-worker scratch (partitioned
    // runs, repeated executions), where arena memory and the Cds shell's
    // search vectors stay warm across runs; without one, from a scratch
    // private to this run.
    std::unique_ptr<ExecScratch> private_scratch;
    ExecScratch* scratch = opts_.scratch;
    if (scratch == nullptr) {
      private_scratch = std::make_unique<ExecScratch>();
      scratch = private_scratch.get();
    }
    CdsArena* arena = &scratch->cds_arena;
    // CDS growth is the engine's dominant allocator: charge it against
    // the query budget for the duration of this run. The run's poll reads
    // the budget latch; the main loop reads the arena's (set by the
    // "arena.slab" failpoint); the run winds down instead of crashing
    // mid-insert. Budget install and stale-latch clear happen BEFORE the
    // CDS is acquired, so growth during this run's own setup is governed
    // too.
    arena->ClearAllocFailed();  // stale latch from a prior query
    arena->SetBudget(opts_.budget);
    Cds& cds =
        scratch->AcquireCds(q_.num_vars, cds_options, opts_.cds_run_token);
    // Stats baselines: under morsel CDS retention (cds_run_token) the
    // shell carries counters from earlier morsels of this run, so report
    // this execution's contribution as deltas. After a Reconfigure the
    // baselines are all zero, making this the plain totals too.
    const uint64_t base_constraints = cds.constraints_inserted();
    const uint64_t base_allocated = arena->nodes_allocated();
    const uint64_t base_recycled = arena->nodes_recycled();
    InsertDomainBounds(&cds);
    Tuple t(q_.num_vars, kFloor);
    if (opts_.var0_min != kNegInf) t[0] = opts_.var0_min;
    cds.SetFrontier(t);

    // Buffers for the whole run: the loop below reuses their capacity, so
    // a free tuple costs no heap allocation.
    Tuple prev_free;
    Tuple advance(q_.num_vars);
    Tuple gap_next(q_.num_vars);
    Tuple proj;
    Constraint gap;
    bool prev_output = true;

    while (cds.ComputeFreeTuple(&poll_)) {
      if (arena->alloc_failed()) break;  // reported below
      // Copy: the Idea 8 drain below mutates the CDS frontier in place.
      t = cds.frontier();
      if (t[0] > opts_.var0_max) break;
      ++result_->stats.free_tuples;

      // Stall safety net: a free tuple equal to the previous one that was
      // not an output means no progress was made — a bug, not a slow run.
      // Fail closed with a structured error instead of aborting the
      // process; the result is marked incomplete.
      if (!prev_output && t == prev_free) {
        result_->status =
            Status(StatusCode::kInternal,
                   "minesweeper stalled: frontier made no progress");
        break;
      }
      prev_free = t;

      bool found_gap = false;
      bool have_advance = false;
      bool exhausted = false;

      auto apply_gap_advance = [&](const Constraint& c) {
        if (!AdvancePastGap(c, t, kFloor, &gap_next)) {
          exhausted = true;
          return;
        }
        if (!have_advance || CompareTuples(gap_next, advance) > 0) {
          advance.swap(gap_next);
          have_advance = true;
        }
      };

      // Inequality filters as virtual gaps.
      for (const auto& [lo, hi] : q_.less_than) {
        if (t[lo] < t[hi]) continue;
        found_gap = true;
        if (lo < hi) {
          gap.pattern.assign(hi, kWildcard);
          gap.pattern[lo] = t[lo];
          gap.lo = kNegInf;
          gap.hi = t[lo] + 1;  // rules out values <= t[lo]
        } else {
          gap.pattern.assign(lo, kWildcard);
          gap.pattern[hi] = t[hi];
          gap.lo = t[hi] - 1;  // rules out values >= t[hi]
          gap.hi = kPosInf;
        }
        apply_gap_advance(gap);
        if (exhausted) break;
      }

      // Probe every atom for a maximal gap box (Idea 3), short-circuited
      // by the Idea 4 cache.
      for (size_t a = 0; !exhausted && a < q_.atoms.size(); ++a) {
        const std::vector<int>& vars = atom_vars_[a];
        proj.resize(vars.size());
        for (size_t i = 0; i < vars.size(); ++i) proj[i] = t[vars[i]];

        bool have_gap = false;
        if (ms_.idea4_gap_cache && CacheAnswers(a, proj, &gap, &have_gap)) {
          ++result_->stats.gap_cache_hits;
          if (!have_gap) continue;  // cache proves no gap from this atom
        } else {
          TrieIndex::GapProbe probe =
              indexes_.at(a)->SeekGap(proj, &result_->stats.seeks);
          if (probe.found) {
            caches_[a].valid = true;
            caches_[a].fail_pos = probe.fail_pos;  // == arity: membership
            caches_[a].at_last_attr = false;
            caches_[a].prefix.assign(proj.begin(), proj.end());
            continue;
          }
          caches_[a].valid = true;
          caches_[a].fail_pos = probe.fail_pos;
          caches_[a].prefix.assign(proj.begin(), proj.begin() + probe.fail_pos);
          caches_[a].glb = probe.glb;
          caches_[a].lub = probe.lub;
          caches_[a].at_last_attr =
              probe.fail_pos + 1 == static_cast<int>(proj.size());
          MakeConstraint(a, probe.fail_pos, proj, probe.glb, probe.lub, &gap);
          have_gap = true;
        }
        found_gap = true;
        if (skeleton_[a]) {
          cds.InsertConstraint(gap);
        } else {
          apply_gap_advance(gap);  // Idea 7: advance only
        }
      }

      if (exhausted) break;
      if (!found_gap) {
        prev_output = true;
        ++result_->count;
        if (opts_.collect_tuples) result_->tuples.push_back(t);
        uint64_t drained = 0;
        if (ms_.count_mode && !opts_.collect_tuples) {
          drained = cds.DrainCompleteLastLevel(last_depth_mask_);
          result_->count += drained;
        }
        if (drained == 0) {
          // Idea 2: advance the frontier past the reported tuple. (When
          // the drain fired it already exhausted the class.) t is
          // reloaded from the frontier at the top of the loop.
          if (t.back() == kPosInf) break;  // cannot advance further
          ++t.back();
          cds.SetFrontier(t);
        }
      } else {
        prev_output = false;
        if (have_advance) cds.SetFrontier(advance);
      }
    }
    if (arena->alloc_failed()) {
      result_->status.Update(
          Status(StatusCode::kResourceExhausted,
                 "CDS arena allocation refused (budget or injected fault)"));
    }
    result_->status.Update(poll_.status());
    // Detach the budget and clear the latch so a pooled scratch arena is
    // reusable by the next (possibly differently-governed) run.
    arena->ClearAllocFailed();
    arena->SetBudget(nullptr);
    result_->stats.constraints_inserted +=
        cds.constraints_inserted() - base_constraints;
    result_->stats.cds_nodes_allocated +=
        arena->nodes_allocated() - base_allocated;
    result_->stats.cds_nodes_recycled +=
        arena->nodes_recycled() - base_recycled;
    result_->stats.cds_peak_arena_bytes =
        std::max(result_->stats.cds_peak_arena_bytes, arena->peak_bytes());
  }

  // Depths where frontier advances (Idea 7 non-skeleton gaps, filter
  // violations) can jump over values: completeness (Idea 6) must not be
  // claimed there, because skipped values never reach the pointList. This
  // realizes §4.12's split — Idea 6 on the path attributes, Idea 7 owning
  // the clique attributes.
  std::vector<bool> CompletenessBlockedDepths() const {
    std::vector<bool> blocked(q_.num_vars, false);
    for (size_t a = 0; a < q_.atoms.size(); ++a) {
      if (skeleton_[a]) continue;
      for (int v : atom_vars_[a]) blocked[v] = true;
    }
    for (const auto& [lo, hi] : q_.less_than) {
      blocked[std::max(lo, hi)] = true;
    }
    return blocked;
  }

  // Domain-bound gap boxes: for every atom column, values outside
  // [col_min, col_max] cannot match that atom under *any* prefix, so the
  // all-wildcard-pattern boxes (-inf, col_min) and (col_max, +inf) are
  // sound for every attribute (a real system gets these from index
  // metadata). They keep the §4.8 poset regime's coordinate climb bounded
  // by the domain instead of running off to +inf. All-wildcard patterns
  // never violate the chain property.
  void InsertDomainBounds(Cds* cds) {
    for (size_t a = 0; a < q_.atoms.size(); ++a) {
      const TrieIndex& index = *indexes_.at(a);
      for (size_t p = 0; p < atom_vars_[a].size(); ++p) {
        const int depth = atom_vars_[a][p];
        Constraint c;
        c.pattern.assign(depth, kWildcard);
        if (index.size() == 0) {
          c.lo = kNegInf;
          c.hi = kPosInf;
          cds->InsertConstraint(c);
          continue;
        }
        c.lo = kNegInf;
        c.hi = index.ColMin(static_cast<int>(p));
        if (c.lo < c.hi) cds->InsertConstraint(c);
        c.lo = index.ColMax(static_cast<int>(p));
        c.hi = kPosInf;
        if (c.lo < c.hi) cds->InsertConstraint(c);
      }
    }
  }

 private:
  // Idea 4. Returns true if the cache decides the probe: either "no gap
  // can come from this atom" (have_gap=false: the projection sits exactly
  // on the cached gap's right endpoint at the atom's last attribute, hence
  // is a member) or "the cached gap still contains the projection"
  // (have_gap=true, *c overwritten).
  bool CacheAnswers(size_t a, const Tuple& proj, Constraint* c,
                    bool* have_gap) {
    const GapCache& cache = caches_[a];
    if (!cache.valid) return false;
    if (cache.fail_pos == static_cast<int>(proj.size())) return false;
    if (!std::equal(cache.prefix.begin(), cache.prefix.end(), proj.begin())) {
      return false;
    }
    const Value v = proj[cache.fail_pos];
    if (cache.at_last_attr && v == cache.lub && IsFinite(cache.lub)) {
      *have_gap = false;  // (prefix, lub) is a data tuple; no gap possible
      return true;
    }
    if (cache.glb < v && v < cache.lub) {
      MakeConstraint(a, cache.fail_pos, proj, cache.glb, cache.lub, c);
      *have_gap = true;
      return true;
    }
    return false;
  }

  // §4.5: lift an atom-local gap to a global constraint. Equalities at the
  // atom's attribute positions before the failing one, wildcards elsewhere.
  // Overwrites *c, reusing its pattern's capacity.
  void MakeConstraint(size_t a, int fail_pos, const Tuple& proj, Value glb,
                      Value lub, Constraint* c) const {
    const std::vector<int>& vars = atom_vars_[a];
    c->pattern.assign(vars[fail_pos], kWildcard);
    for (int p = 0; p < fail_pos; ++p) c->pattern[vars[p]] = proj[p];
    c->lo = glb;
    c->hi = lub;
  }

  const MsOptions& ms_;
  const BoundQuery& q_;
  const ExecOptions& opts_;
  ExecResult* result_;
  AbortPoll poll_;  // checked on every CDS search step
  AtomIndexSet indexes_;
  std::vector<std::vector<int>> atom_vars_;  // sorted GAO positions per atom
  std::vector<bool> skeleton_;
  std::vector<GapCache> caches_;
  uint64_t last_depth_mask_ = 0;
};

}  // namespace

ExecResult MinesweeperEngine::Execute(const BoundQuery& q,
                                      const ExecOptions& opts) const {
  ExecResult result;
  // The CDS keys equality positions, and the Idea 8 drain its soundness
  // mask, by 64-bit masks: refuse wider queries before building either.
  if (q.num_vars > Cds::kMaxVars) {
    result.status = Status(
        StatusCode::kInvalidArgument,
        "minesweeper supports at most " + std::to_string(Cds::kMaxVars) +
            " variables (query has " + std::to_string(q.num_vars) + ")");
    return result;
  }
  // A degenerate x<x filter makes the query unsatisfiable; the gap-box
  // encoding below assumes lo != hi, so answer before entering the loop.
  for (const auto& [lo, hi] : q.less_than) {
    if (lo == hi) return result;
  }
  MsRun run(options_, q, opts, &result);
  run.Run();
  FinalizeExecStatus(&result, opts);
  return result;
}

}  // namespace wcoj
