#ifndef WCOJ_CORE_MINESWEEPER_H_
#define WCOJ_CORE_MINESWEEPER_H_

// Minesweeper (Ngo, Nguyen, Ré, Rudra PODS'14; implementation §4 of the
// reproduced paper). The outer loop (Algorithm 3) alternates between the
// CDS's ComputeFreeTuple and probing every input index for gap boxes
// around the candidate (Idea 3). Implementation ideas:
//
//  Idea 1  pointList                    -> core/cds.*
//  Idea 2  moving frontier             -> core/cds.* + output handling here
//  Idea 3  maximal gap boxes           -> storage/trie.* SeekGap + here
//  Idea 4  seekGap avoidance cache     -> here
//  Idea 5  backtracking & truncation   -> core/cds.*
//  Idea 6  complete nodes              -> core/cds.*
//  Idea 7  β-acyclic skeleton          -> query/hypergraph.* + here
//  Idea 8  #Minesweeper counting       -> cds DrainCompleteLastLevel + here
//
// Inequality filters are treated as virtual infinite relations: a violated
// filter yields a gap box that advances the frontier (never enters the
// CDS, mirroring Idea 7's handling of non-skeleton atoms).
//
// Contract: Minesweeper requires every key of every atom column in
// [0, kWildcard) (the frontier floor is -1, and a pattern value of
// kWildcard reads as a wildcard) and at most Cds::kMaxVars variables;
// Execute refuses other queries with kInvalidArgument.

#include <string>

#include "core/engine.h"

namespace wcoj {

struct MsOptions {
  bool idea4_gap_cache = true;
  bool idea6_complete_nodes = true;
  bool idea7_skeleton = true;
  bool count_mode = false;  // Idea 8; ignored when collecting tuples
};

class MinesweeperEngine : public Engine {
 public:
  explicit MinesweeperEngine(const MsOptions& options = MsOptions{},
                             std::string name = "ms")
      : options_(options), name_(std::move(name)) {}

  std::string name() const override { return name_; }
  ExecResult Execute(const BoundQuery& q,
                     const ExecOptions& opts) const override;

  const MsOptions& options() const { return options_; }

 private:
  MsOptions options_;
  std::string name_;
};

}  // namespace wcoj

#endif  // WCOJ_CORE_MINESWEEPER_H_
