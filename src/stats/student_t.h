#ifndef APPROXHADOOP_STATS_STUDENT_T_H_
#define APPROXHADOOP_STATS_STUDENT_T_H_

namespace approxhadoop::stats {

/**
 * Regularized incomplete beta function I_x(a, b).
 *
 * Evaluated with the Lentz continued-fraction expansion (the classic
 * betacf scheme); accurate to ~1e-12 over the parameter ranges the t
 * distribution needs.
 *
 * @pre 0 <= x <= 1, a > 0, b > 0
 */
double incompleteBeta(double a, double b, double x);

/**
 * CDF of Student's t distribution with @p df degrees of freedom.
 *
 * @pre df > 0
 */
double studentTCdf(double t, double df);

/**
 * Quantile (inverse CDF) of Student's t distribution.
 *
 * This provides the t_{n-1, 1-alpha/2} multipliers in the paper's
 * Equation 2. Computed by monotone bisection on studentTCdf, which is
 * robust for all df >= 1 (including the heavy-tailed df = 1 and 2 cases
 * that appear when only a couple of map tasks have completed).
 *
 * @param p  probability in (0, 1)
 * @param df degrees of freedom (> 0)
 */
double studentTQuantile(double p, double df);

/**
 * Convenience: two-sided critical value t_{df, 1-alpha/2} for the given
 * confidence level (e.g., confidence = 0.95 gives t_{df, 0.975}).
 *
 * Returns +infinity when df < 1, matching the statistical reality that a
 * single sampled cluster admits no finite confidence interval.
 */
double studentTCritical(double confidence, double df);

/**
 * Memoized studentTCritical, keyed by the exact (confidence, df) pair.
 *
 * Its callers are core::MultiStageSamplingReducer and
 * core::TargetErrorController, both on the job's driver thread. Each
 * looks the value up once per decision, not once per key: the reducer
 * once per bound scan (its df is the clusters consumed minus one), the
 * controller once per candidate cluster count. What the memo saves is
 * the bisection a new df costs, which every map completion and replan
 * would otherwise repeat. The table is process-wide and guarded by a
 * reader/writer lock, so calls from any thread are safe.
 */
double studentTCriticalCached(double confidence, double df);

/** Standard normal CDF. */
double normalCdf(double z);

/**
 * Standard normal quantile (Acklam's rational approximation, |err| < 1e-9).
 *
 * @pre 0 < p < 1
 */
double normalQuantile(double p);

}  // namespace approxhadoop::stats

#endif  // APPROXHADOOP_STATS_STUDENT_T_H_
