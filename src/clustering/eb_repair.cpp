#include "clustering/eb_repair.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace fdevolve::clustering {
namespace {

/// Scores one candidate attribute against the shared ground truth. Pure
/// function of (rel, ground_truth, base_x, attr) — workers call it
/// concurrently, each with its own scratch.
EbCandidate ScoreCandidate(const relation::Relation& rel,
                           const Clustering& ground_truth,
                           const query::Grouping& base_x, int attr,
                           query::RefineScratch& scratch) {
  EbCandidate c;
  c.attr = attr;
  Clustering c_xa(query::RefineBy(rel, base_x, attr, scratch));
  relation::AttrSet only_a;
  only_a.Add(attr);
  Clustering c_a(query::GroupBy(rel, only_a, scratch));
  c.h_xy_given_xa = ConditionalEntropy(ground_truth, c_xa);
  c.h_a_given_xy = ConditionalEntropy(c_a, ground_truth);
  c.vi = VariationOfInformation(ground_truth, c_xa);
  return c;
}

}  // namespace

std::vector<EbCandidate> RankEb(const relation::Relation& rel,
                                const fd::Fd& fd,
                                const relation::AttrSet& pool,
                                EbVariant variant, int threads) {
  // Ground truth: C_XY (§5). Built once; each candidate costs one
  // refinement of C_X plus two entropy passes. Candidate scoring fans out
  // across the pool, one scratch arena per chunk.
  const int width = util::ResolveThreads(threads);
  query::RefineScratch scratch;
  const Clustering ground_truth(query::GroupBy(rel, fd.AllAttrs(), scratch));
  const query::Grouping base_x = query::GroupBy(rel, fd.lhs(), scratch);

  const std::vector<int> attrs = pool.ToVector();
  std::vector<EbCandidate> out(attrs.size());
  if (width > 1 && attrs.size() > 1) {
    // Slot-per-candidate writes keep the result order independent of
    // scheduling; ground_truth/base_x are shared read-only. ParallelFor
    // caps the width at the candidate count, so size scratches to that.
    std::vector<query::RefineScratch> worker(
        std::min<size_t>(static_cast<size_t>(width), attrs.size()));
    util::ThreadPool::Global().ParallelFor(
        attrs.size(), 1, width, [&](int chunk, size_t lo, size_t hi) {
          query::RefineScratch& ws = worker[static_cast<size_t>(chunk)];
          for (size_t i = lo; i < hi; ++i) {
            out[i] = ScoreCandidate(rel, ground_truth, base_x, attrs[i], ws);
          }
        });
  } else {
    for (size_t i = 0; i < attrs.size(); ++i) {
      out[i] = ScoreCandidate(rel, ground_truth, base_x, attrs[i], scratch);
    }
  }

  auto original_less = [](const EbCandidate& a, const EbCandidate& b) {
    if (a.h_xy_given_xa != b.h_xy_given_xa) {
      return a.h_xy_given_xa < b.h_xy_given_xa;
    }
    if (a.h_a_given_xy != b.h_a_given_xy) {
      return a.h_a_given_xy < b.h_a_given_xy;
    }
    return a.attr < b.attr;
  };
  auto vi_less = [](const EbCandidate& a, const EbCandidate& b) {
    if (a.vi != b.vi) return a.vi < b.vi;
    return a.attr < b.attr;
  };
  if (variant == EbVariant::kOriginal) {
    std::sort(out.begin(), out.end(), original_less);
  } else {
    std::sort(out.begin(), out.end(), vi_less);
  }
  return out;
}

std::vector<EbCandidate> RankEb(const relation::Relation& rel,
                                const fd::Fd& fd,
                                const fd::PoolOptions& opts,
                                EbVariant variant, int threads) {
  return RankEb(rel, fd, fd::CandidatePool(rel, fd, opts), variant, threads);
}

}  // namespace fdevolve::clustering
