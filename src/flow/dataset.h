#ifndef POL_FLOW_DATASET_H_
#define POL_FLOW_DATASET_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "flow/threadpool.h"

// Dataset<T>: an in-memory partitioned collection with the operations
// the pipeline's steps are written in (filter / whole-partition map /
// key-based shuffle / per-partition sort / chunking).
//
// This is the in-process stand-in for Apache Spark used by the original
// system. Operations parallelize over partitions on a ThreadPool. The
// reduce phase is core::InventoryBuilder::Fold, which merges partials
// in ascending partition order, so its result is independent of the
// number of worker threads and bit-for-bit reproducible run to run.

namespace pol::flow {

template <typename T>
class Dataset {
 public:
  // Wraps existing partitions. The pool must outlive the dataset.
  Dataset(std::vector<std::vector<T>> partitions, ThreadPool* pool)
      : partitions_(std::move(partitions)), pool_(pool) {
    POL_CHECK(pool_ != nullptr);
    POL_CHECK(!partitions_.empty()) << "datasets have at least one partition";
  }

  // Splits `data` into exactly `num_partitions` contiguous slices in
  // input order. The split is balanced: partition sizes differ by at
  // most one, so no partition is empty while another holds two or more.
  // Requesting more partitions than elements is well defined — the
  // result still has `num_partitions` partitions, with the elements
  // spread evenly and the excess partitions empty.
  static Dataset FromVector(std::vector<T> data, int num_partitions,
                            ThreadPool* pool) {
    POL_CHECK(num_partitions >= 1);
    const size_t p = static_cast<size_t>(num_partitions);
    std::vector<std::vector<T>> partitions(p);
    for (size_t i = 0; i < p; ++i) {
      const size_t begin = i * data.size() / p;
      const size_t end = (i + 1) * data.size() / p;
      partitions[i].assign(std::make_move_iterator(data.begin() + begin),
                           std::make_move_iterator(data.begin() + end));
    }
    Dataset dataset(std::move(partitions), pool);
    POL_CHECK(dataset.num_partitions() == num_partitions);
    return dataset;
  }

  int num_partitions() const { return static_cast<int>(partitions_.size()); }

  const std::vector<T>& partition(int index) const {
    POL_DCHECK(index >= 0 && index < num_partitions());
    return partitions_[static_cast<size_t>(index)];
  }

  size_t Count() const {
    size_t total = 0;
    for (const auto& p : partitions_) total += p.size();
    return total;
  }

  // Concatenation of all partitions in partition order.
  std::vector<T> Collect() const {
    std::vector<T> out;
    out.reserve(Count());
    for (const auto& p : partitions_) {
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  // Keeps elements satisfying the predicate.
  template <typename Pred>
  Dataset<T> Filter(Pred pred) const {
    std::vector<std::vector<T>> out(partitions_.size());
    pool_->ParallelFor(partitions_.size(), [&](size_t i) {
      for (const T& item : partitions_[i]) {
        if (pred(item)) out[i].push_back(item);
      }
    });
    return Dataset<T>(std::move(out), pool_);
  }

  // Whole-partition transform: fn(const std::vector<T>&) -> std::vector<U>.
  // The workhorse for per-vessel sequence logic after a key shuffle +
  // sort (runs of one vessel are contiguous within a partition).
  template <typename F>
  auto MapPartitions(F fn) const
      -> Dataset<typename std::decay_t<
          std::invoke_result_t<F, const std::vector<T>&>>::value_type> {
    using U = typename std::decay_t<
        std::invoke_result_t<F, const std::vector<T>&>>::value_type;
    std::vector<std::vector<U>> out(partitions_.size());
    pool_->ParallelFor(partitions_.size(),
                       [&](size_t i) { out[i] = fn(partitions_[i]); });
    return Dataset<U>(std::move(out), pool_);
  }

  // Hash-shuffles elements so that equal keys land in the same target
  // partition. key_fn(const T&) must return a hashable value. Output
  // order within a partition follows (source partition, source position),
  // so the shuffle is deterministic for a fixed input partitioning.
  template <typename KeyFn>
  Dataset<T> PartitionByKey(KeyFn key_fn, int num_target_partitions) const {
    POL_CHECK(num_target_partitions >= 1);
    const size_t targets = static_cast<size_t>(num_target_partitions);
    using Key = std::decay_t<std::invoke_result_t<KeyFn, const T&>>;
    // Per-source bucketing in parallel, then ordered concatenation.
    std::vector<std::vector<std::vector<T>>> buckets(partitions_.size());
    pool_->ParallelFor(partitions_.size(), [&](size_t src) {
      buckets[src].assign(targets, {});
      for (const T& item : partitions_[src]) {
        const size_t target =
            std::hash<Key>{}(key_fn(item)) % targets;
        buckets[src][target].push_back(item);
      }
    });
    std::vector<std::vector<T>> out(targets);
    pool_->ParallelFor(targets, [&](size_t target) {
      size_t total = 0;
      for (const auto& src : buckets) total += src[target].size();
      out[target].reserve(total);
      for (auto& src : buckets) {
        out[target].insert(out[target].end(),
                           std::make_move_iterator(src[target].begin()),
                           std::make_move_iterator(src[target].end()));
      }
    });
    return Dataset<T>(std::move(out), pool_);
  }

  // Consumes the dataset and regroups its partitions into `num_chunks`
  // contiguous, balanced groups — the chunk source for the stage
  // runner. Partition identity and order are preserved exactly:
  // concatenating the chunks' partition lists reproduces this dataset's
  // partition list, which is what keeps chunked aggregation bit-equal
  // to single-shot aggregation (partials always merge in ascending
  // global partition order). When `num_chunks` exceeds the partition
  // count, the excess chunks hold one empty partition each.
  std::vector<Dataset<T>> SplitIntoChunks(int num_chunks) && {
    POL_CHECK(num_chunks >= 1);
    const size_t c = static_cast<size_t>(num_chunks);
    const size_t p = partitions_.size();
    std::vector<Dataset<T>> chunks;
    chunks.reserve(c);
    for (size_t i = 0; i < c; ++i) {
      const size_t begin = i * p / c;
      const size_t end = (i + 1) * p / c;
      std::vector<std::vector<T>> group;
      if (begin == end) {
        group.emplace_back();  // Placeholder: datasets need >= 1 partition.
      } else {
        group.assign(std::make_move_iterator(partitions_.begin() + begin),
                     std::make_move_iterator(partitions_.begin() + end));
      }
      chunks.push_back(Dataset(std::move(group), pool_));
    }
    partitions_.clear();
    return chunks;
  }

  // Stable-sorts every partition independently (Spark's
  // sortWithinPartitions).
  template <typename Less>
  Dataset<T> SortWithinPartitions(Less less) const {
    std::vector<std::vector<T>> out(partitions_.size());
    pool_->ParallelFor(partitions_.size(), [&](size_t i) {
      out[i] = partitions_[i];
      std::stable_sort(out[i].begin(), out[i].end(), less);
    });
    return Dataset<T>(std::move(out), pool_);
  }

  ThreadPool* pool() const { return pool_; }

 private:
  std::vector<std::vector<T>> partitions_;
  ThreadPool* pool_;
};

}  // namespace pol::flow

#endif  // POL_FLOW_DATASET_H_
