/**
 * @file
 * Cell-to-cell interference (disturbance) model.
 *
 * Frequent activations of a row drain charge from cells in the two
 * physically adjacent rows (Kim'14, the row-hammer effect). Under a
 * relaxed refresh period this turns near-threshold cells — cells whose
 * retention narrowly exceeds the effective refresh interval — into
 * failing cells. The paper identifies the memory access rate as the
 * program feature most strongly correlated with WER (Fig 10, rs ~ 0.57)
 * and attributes it to this mechanism.
 *
 * The model widens the weak-cell retention threshold: a victim cell
 * fails if tau < t_eff * (1 + delta) where delta grows with the number
 * of aggressor activations the neighbouring rows receive within one
 * refresh window.
 */

#ifndef DFAULT_DRAM_INTERFERENCE_HH
#define DFAULT_DRAM_INTERFERENCE_HH

#include "common/units.hh"

namespace dfault::dram {

/** Activation-count driven disturbance model; see file comment. */
class InterferenceModel
{
  public:
    struct Params
    {
        /**
         * Threshold widening at the reference aggressor intensity:
         * delta = strength * log1p(acts_per_window / refActivations).
         */
        double strength = 1.2;
        /** Aggressor activations per refresh window that give log1p(1). */
        double refActivations = 150.0;
        /** Upper bound on delta (charge loss saturates); >= 0. */
        double maxDelta = 1.5;
    };

    InterferenceModel();
    explicit InterferenceModel(const Params &params);

    const Params &params() const { return params_; }

    /**
     * Threshold-widening factor delta for a victim row whose neighbours
     * receive @p aggressor_rate activations per second under refresh
     * period @p trefp. Returns 0 when there is no aggressor activity.
     */
    double thresholdWidening(double aggressor_rate, Seconds trefp) const;

  private:
    Params params_;
};

} // namespace dfault::dram

#endif // DFAULT_DRAM_INTERFERENCE_HH
