#ifndef WCOJ_STORAGE_RELATION_H_
#define WCOJ_STORAGE_RELATION_H_

// Relation: an immutable-after-Build, duplicate-free, lexicographically
// sorted set of fixed-arity tuples, stored row-major in one flat array.
//
// This is the base storage every index and engine works from. Attribute
// *names* live in the query layer; a Relation only knows column positions.

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

#include "util/value.h"

namespace wcoj {

class Relation {
 public:
  explicit Relation(int arity) : arity_(arity) { assert(arity >= 1); }

  static Relation FromTuples(int arity, const std::vector<Tuple>& tuples);

  // Pre-sizes the staging buffer for `num_tuples` upcoming Add calls so
  // large loads don't pay reallocation churn; only valid before Build().
  void Reserve(size_t num_tuples);

  // Appends a tuple; only valid before Build().
  void Add(const Tuple& t);
  void Add(std::initializer_list<Value> t);
  // Appends `num_rows` rows stored row-major at `rows`; only valid
  // before Build().
  void AddRows(const Value* rows, size_t num_rows);

  // Sorts lexicographically and removes duplicates. Idempotent. Rows
  // staged strictly increasing (the output of a sorted merge) are kept
  // as they are: one pass that stops at the first row out of order.
  void Build();

  int arity() const { return arity_; }
  size_t size() const { return built_ ? data_.size() / arity_ : 0; }
  bool built() const { return built_; }

  Value At(size_t row, int col) const {
    assert(built_ && col >= 0 && col < arity_);
    return data_[row * arity_ + col];
  }
  const Value* Row(size_t row) const { return data_.data() + row * arity_; }
  Tuple RowTuple(size_t row) const;

  // Index of the first row not lexicographically less than `row`
  // (an `arity()`-value array), or size() when there is none.
  size_t LowerBound(const Value* row) const;
  // True iff the exact tuple is present (binary search).
  bool Contains(const Tuple& t) const;

  // A copy with columns permuted: out column i = in column perm[i].
  Relation Permuted(const std::vector<int>& perm) const;

  std::string DebugString(size_t max_rows = 20) const;

 private:
  int arity_;
  bool built_ = false;
  std::vector<Value> data_;  // staging rows before Build, sorted rows after
};

}  // namespace wcoj

#endif  // WCOJ_STORAGE_RELATION_H_
