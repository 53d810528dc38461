/**
 * @file
 * DRAM cell retention-time model.
 *
 * Cell retention times follow a lognormal distribution (Hamamoto'98,
 * Liu'13): the vast majority of cells retain charge for hundreds of
 * seconds, with a weak tail that leaks within single-digit seconds. The
 * model exposes the tail probability P(tau < t_eff) — the probability
 * that a cell leaks before its next (explicit or implicit) refresh —
 * under a given operating point:
 *
 *   tau(T, V) = tau_ref * exp(-alpha * (T - 50C)) * (V / 1.5V)^gammaV
 *
 * i.e. retention decreases exponentially with temperature and mildly
 * with supply voltage, matching the paper's observations that a 5% VDD
 * reduction alone is close to error-free while the temperature raise
 * from 50C to 70C inflates error rates by orders of magnitude.
 */

#ifndef DFAULT_DRAM_RETENTION_HH
#define DFAULT_DRAM_RETENTION_HH

#include "common/units.hh"
#include "dram/operating_point.hh"

namespace dfault::dram {

/**
 * Analytic retention-tail model; see the file comment for the physics.
 *
 * Default parameters are calibrated (tests/dram/test_retention.cpp and
 * the integration calibration test) so that the nominal operating point
 * is error-free and the relaxed points reproduce the paper's WER band
 * of 1e-10 .. 1e-5 per 64-bit word.
 */
class RetentionModel
{
  public:
    struct Params
    {
        /** Mean of ln(tau/seconds) at 50 C, 1.5 V. */
        double mu = 7.2;
        /** Standard deviation of ln(tau). */
        double sigma = 1.05;
        /** Exponential temperature acceleration per degree C. */
        double tempAlpha = 0.075;
        /** Retention sensitivity to VDD: tau scales as (V/Vnom)^gammaV. */
        double vddGamma = 2.0;
        /** Reference temperature for mu (degrees C). */
        Celsius refTemperature = 50.0;
    };

    RetentionModel();
    explicit RetentionModel(const Params &params);

    const Params &params() const { return params_; }

    /**
     * Multiplicative factor applied to every cell's retention time under
     * the given operating point (1.0 at 50 C / 1.5 V).
     */
    double tauScale(const OperatingPoint &op) const;

    /**
     * Factor applied to the retention time of every cell of a device
     * whose manufacturing variation multiplies retention by
     * @p device_scale, under @p op: tauScale(op) * device_scale.
     */
    double effectiveScale(const OperatingPoint &op,
                          double device_scale) const;

    /**
     * Probability that a cell's retention time is below @p t_eff under
     * operating point @p op for a device whose manufacturing variation
     * multiplies retention by @p device_scale.
     */
    double weakProbability(Seconds t_eff, const OperatingPoint &op,
                           double device_scale = 1.0) const;

    /**
     * weakProbability() given the precomputed effectiveScale(): callers
     * evaluating many refresh windows of one device at one operating
     * point compute the scale once.
     */
    double weakProbabilityAtScale(Seconds t_eff, double scale) const;

    /**
     * Retention time (seconds) below which a fraction @p p of cells
     * fall, under @p op. Inverse of weakProbability in t_eff.
     */
    Seconds weakQuantile(double p, const OperatingPoint &op,
                         double device_scale = 1.0) const;

  private:
    Params params_;
};

} // namespace dfault::dram

#endif // DFAULT_DRAM_RETENTION_HH
