#include "storage/relation.h"

#include <algorithm>
#include <cstring>

namespace wcoj {

namespace {

// Sorts row indices lexicographically, then rewrites the flat array.
void SortRows(int arity, std::vector<Value>* data) {
  const size_t n = data->size() / arity;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  const Value* d = data->data();
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(d + a * arity, d + (a + 1) * arity,
                                        d + b * arity, d + (b + 1) * arity);
  });
  std::vector<Value> sorted;
  sorted.reserve(data->size());
  for (size_t i = 0; i < n; ++i) {
    const Value* row = d + order[i] * arity;
    // Skip duplicates of the previous emitted row.
    if (!sorted.empty() &&
        std::equal(row, row + arity, sorted.end() - arity)) {
      continue;
    }
    sorted.insert(sorted.end(), row, row + arity);
  }
  *data = std::move(sorted);
}

// True iff every staged row is strictly greater than the one before it:
// already sorted and duplicate-free. Stops at the first row that is not.
bool StrictlyIncreasing(int arity, const std::vector<Value>& data) {
  const Value* d = data.data();
  const size_t n = data.size() / arity;
  for (size_t i = 1; i < n; ++i) {
    const Value* prev = d + (i - 1) * arity;
    if (!std::lexicographical_compare(prev, prev + arity, prev + arity,
                                      prev + 2 * arity)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Relation Relation::FromTuples(int arity, const std::vector<Tuple>& tuples) {
  Relation r(arity);
  r.Reserve(tuples.size());
  for (const auto& t : tuples) r.Add(t);
  r.Build();
  return r;
}

void Relation::Reserve(size_t num_tuples) {
  assert(!built_);
  data_.reserve(data_.size() + num_tuples * arity_);
}

void Relation::Add(const Tuple& t) {
  assert(!built_);
  assert(static_cast<int>(t.size()) == arity_);
  data_.insert(data_.end(), t.begin(), t.end());
}

void Relation::Add(std::initializer_list<Value> t) {
  assert(!built_);
  assert(static_cast<int>(t.size()) == arity_);
  data_.insert(data_.end(), t.begin(), t.end());
}

void Relation::AddRows(const Value* rows, size_t num_rows) {
  assert(!built_);
  data_.insert(data_.end(), rows, rows + num_rows * arity_);
}

void Relation::Build() {
  if (built_) return;
  if (!StrictlyIncreasing(arity_, data_)) SortRows(arity_, &data_);
  built_ = true;
}

Tuple Relation::RowTuple(size_t row) const {
  const Value* r = Row(row);
  return Tuple(r, r + arity_);
}

size_t Relation::LowerBound(const Value* row) const {
  assert(built_);
  size_t lo = 0, hi = size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const Value* r = Row(mid);
    if (std::lexicographical_compare(r, r + arity_, row, row + arity_)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool Relation::Contains(const Tuple& t) const {
  assert(built_ && static_cast<int>(t.size()) == arity_);
  const size_t at = LowerBound(t.data());
  return at < size() && std::equal(t.begin(), t.end(), Row(at));
}

Relation Relation::Permuted(const std::vector<int>& perm) const {
  assert(built_ && static_cast<int>(perm.size()) == arity_);
  Relation out(arity_);
  out.Reserve(size());
  Tuple tmp(arity_);
  for (size_t i = 0; i < size(); ++i) {
    const Value* row = Row(i);
    for (int c = 0; c < arity_; ++c) tmp[c] = row[perm[c]];
    out.Add(tmp);
  }
  out.Build();
  return out;
}

std::string Relation::DebugString(size_t max_rows) const {
  std::string out = "Relation(arity=" + std::to_string(arity_) +
                    ", size=" + std::to_string(size()) + ") {";
  for (size_t i = 0; i < size() && i < max_rows; ++i) {
    out += (i ? ", " : " ") + TupleToString(RowTuple(i));
  }
  if (size() > max_rows) out += ", ...";
  out += " }";
  return out;
}

}  // namespace wcoj
