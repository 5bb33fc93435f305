#include "fd/candidate_ranking.h"

#include <algorithm>

namespace fdevolve::fd {

relation::AttrSet CandidatePool(const relation::Relation& rel, const Fd& fd,
                                const PoolOptions& opts,
                                std::vector<query::ColumnStats>* stats) {
  relation::AttrSet pool = rel.schema().AllAttrs().Minus(fd.AllAttrs());
  if (!opts.restrict_to.Empty()) {
    pool = pool.Intersect(opts.restrict_to);
  }
  std::vector<query::ColumnStats> local;
  std::vector<query::ColumnStats>& s = stats != nullptr ? *stats : local;
  s = query::ComputeColumnStats(rel, pool);
  for (int a : pool.ToVector()) {
    const query::ColumnStats& c = s[static_cast<size_t>(a)];
    if ((opts.exclude_nulls && c.null_count > 0) ||
        (opts.exclude_unique && c.is_unique)) {
      pool.Remove(a);
    }
  }
  return pool;
}

std::vector<Candidate> ExtendByOne(query::DistinctEvaluator& eval,
                                   const Fd& fd,
                                   const relation::AttrSet& pool) {
  // Warm the shared bases: every candidate's counts refine C_X and C_XY.
  eval.GroupFor(fd.lhs());
  eval.GroupFor(fd.AllAttrs());
  std::vector<Candidate> out;
  out.reserve(static_cast<size_t>(pool.Count()));
  for (int a : pool.ToVector()) {
    Candidate c;
    c.attr = a;
    c.extended = fd.WithAntecedent(a);
    c.measures = ComputeMeasures(eval, c.extended);
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), Candidate::RankLess);
  return out;
}

std::vector<Candidate> ExtendByOne(query::DistinctEvaluator& eval,
                                   const Fd& fd, const PoolOptions& opts) {
  return ExtendByOne(eval, fd, CandidatePool(eval.rel(), fd, opts));
}

}  // namespace fdevolve::fd
