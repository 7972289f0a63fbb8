#include "core/engine.h"

#include "core/hybrid.h"
#include "core/lftj.h"
#include "core/minesweeper.h"
#include "baseline/binary_join.h"
#include "baseline/clique_engine.h"
#include "baseline/yannakakis.h"

namespace wcoj {

ExecResult RunTimed(const Engine& engine, const BoundQuery& q,
                    const ExecOptions& opts) {
  Stopwatch watch;
  ExecResult result = engine.Execute(q, opts);
  result.seconds = watch.ElapsedSeconds();
  return result;
}

std::unique_ptr<Engine> CreateEngine(const std::string& name) {
  if (name == "lftj") return std::make_unique<LftjEngine>();
  if (name == "ms") return std::make_unique<MinesweeperEngine>();
  if (name == "#ms") {
    MsOptions o;
    o.count_mode = true;
    return std::make_unique<MinesweeperEngine>(o, "#ms");
  }
  if (name == "ms-noidea4") {
    MsOptions o;
    o.idea4_gap_cache = false;
    return std::make_unique<MinesweeperEngine>(o, name);
  }
  if (name == "ms-noidea6") {
    MsOptions o;
    o.idea6_complete_nodes = false;
    return std::make_unique<MinesweeperEngine>(o, name);
  }
  if (name == "ms-noidea46") {
    MsOptions o;
    o.idea4_gap_cache = false;
    o.idea6_complete_nodes = false;
    return std::make_unique<MinesweeperEngine>(o, name);
  }
  if (name == "ms-noidea7") {
    MsOptions o;
    o.idea7_skeleton = false;
    return std::make_unique<MinesweeperEngine>(o, name);
  }
  if (name == "hybrid") return std::make_unique<HybridEngine>();
  if (name == "psql") {
    return std::make_unique<BinaryJoinEngine>(
        PlanStrategy::kDynamicProgramming);
  }
  if (name == "monetdb") {
    return std::make_unique<BinaryJoinEngine>(PlanStrategy::kGreedySmallest);
  }
  if (name == "yannakakis") return std::make_unique<YannakakisEngine>();
  if (name == "clique") return std::make_unique<CliqueEngine>();
  return nullptr;
}

std::vector<std::string> EngineNames() {
  return {"lftj",        "ms",          "#ms",     "ms-noidea4",
          "ms-noidea6",  "ms-noidea46", "ms-noidea7", "hybrid",
          "psql",        "monetdb",     "yannakakis", "clique"};
}

}  // namespace wcoj
