#include "sys/thermal.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/deferral.hh"
#include "obs/events.hh"
#include "obs/stats.hh"

namespace dfault::sys {

PidController::PidController(const Gains &gains, double output_min,
                             double output_max)
    : gains_(gains), outputMin_(output_min), outputMax_(output_max)
{
    DFAULT_ASSERT(output_min <= output_max, "PID output bounds inverted");
}

double
PidController::step(double setpoint, double measurement, Seconds dt)
{
    DFAULT_ASSERT(dt > 0.0, "PID step needs positive dt");
    const double error = setpoint - measurement;

    const double derivative =
        hasPrev_ ? (error - prevError_) / dt : 0.0;
    prevError_ = error;
    hasPrev_ = true;

    // Tentative command with the current integral.
    double command = gains_.kp * error + gains_.ki * integral_ +
                     gains_.kd * derivative;

    // Conditional integration anti-windup: only integrate when the
    // command is not pushing further into saturation.
    const bool saturated_high = command >= outputMax_ && error > 0.0;
    const bool saturated_low = command <= outputMin_ && error < 0.0;
    if (!saturated_high && !saturated_low) {
        integral_ += error * dt;
        command = gains_.kp * error + gains_.ki * integral_ +
                  gains_.kd * derivative;
    }

    return std::clamp(command, outputMin_, outputMax_);
}

void
PidController::reset()
{
    integral_ = 0.0;
    prevError_ = 0.0;
    hasPrev_ = false;
}

ThermalTestbed::ThermalTestbed() : ThermalTestbed(Params{}) {}

ThermalTestbed::ThermalTestbed(const Params &params) : params_(params)
{
    if (params_.dimms <= 0)
        DFAULT_FATAL("thermal: dimm count must be positive");
    if (params_.heatCapacity <= 0.0 || params_.lossCoeff <= 0.0)
        DFAULT_FATAL("thermal: plant constants must be positive");

    temperature_.assign(params_.dimms, params_.ambient);
    target_.assign(params_.dimms, params_.ambient);
    dramPower_.assign(params_.dimms, 0.0);
    settledSteps_.assign(params_.dimms, 0);
    controllers_.reserve(params_.dimms);
    for (int d = 0; d < params_.dimms; ++d)
        controllers_.emplace_back(params_.gains, 0.0,
                                  params_.maxHeaterPower);
}

void
ThermalTestbed::reset()
{
    temperature_.assign(params_.dimms, params_.ambient);
    target_.assign(params_.dimms, params_.ambient);
    dramPower_.assign(params_.dimms, 0.0);
    settledSteps_.assign(params_.dimms, 0);
    for (auto &controller : controllers_)
        controller.reset();
}

void
ThermalTestbed::setTarget(int dimm, Celsius target)
{
    DFAULT_ASSERT(dimm >= 0 && dimm < params_.dimms, "dimm out of range");
    const double max_reachable =
        params_.ambient +
        (params_.maxHeaterPower + dramPower_[dimm]) / params_.lossCoeff;
    if (target > max_reachable)
        DFAULT_FATAL("thermal: target ", target,
                     " C unreachable with heater power budget (max ",
                     max_reachable, " C)");
    target_[dimm] = target;
    controllers_[dimm].reset();
    settledSteps_[dimm] = 0;
}

void
ThermalTestbed::setTargetAll(Celsius target)
{
    for (int d = 0; d < params_.dimms; ++d)
        setTarget(d, target);
}

void
ThermalTestbed::setDramPower(int dimm, double watts)
{
    DFAULT_ASSERT(dimm >= 0 && dimm < params_.dimms, "dimm out of range");
    DFAULT_ASSERT(watts >= 0.0, "DRAM power cannot be negative");
    dramPower_[dimm] = watts;
}

void
ThermalTestbed::step()
{
    for (int d = 0; d < params_.dimms; ++d) {
        const double heater =
            controllers_[d].step(target_[d], temperature_[d], params_.dt);
        const double net_power = heater + dramPower_[d] -
                                 params_.lossCoeff *
                                     (temperature_[d] - params_.ambient);
        temperature_[d] += params_.dt * net_power / params_.heatCapacity;

        if (std::abs(temperature_[d] - target_[d]) <= params_.tolerance)
            ++settledSteps_[d];
        else
            settledSteps_[d] = 0;
    }
}

bool
ThermalTestbed::stepUntilSettled(int max_steps)
{
    const int needed =
        std::max(1, static_cast<int>(std::ceil(1.0 / params_.dt)));
    bool settled = false;
    int steps = max_steps;
    for (int i = 0; i < max_steps && !settled; ++i) {
        step();
        bool all = true;
        for (int d = 0; d < params_.dimms; ++d)
            all = all && settledSteps_[d] >= needed;
        if (all) {
            settled = true;
            steps = i + 1;
        }
    }

    // publish*() so campaign-cell deferrals (obs/deferral.hh) can
    // capture the settle stats transactionally; outside a deferral
    // these apply immediately, as before.
    obs::publishCounter("thermal.settles", "PID settle attempts");
    obs::publishHistogram("thermal.settle_steps",
                          "control steps until the PID loop converged",
                          static_cast<double>(steps));
    if (!settled)
        obs::publishCounter("thermal.settle_failures",
                            "settle attempts that hit the step limit");
    auto &sink = obs::EventSink::instance();
    if (sink.enabled()) {
        double mean_temp = 0.0, mean_target = 0.0;
        for (int d = 0; d < params_.dimms; ++d) {
            mean_temp += temperature_[d];
            mean_target += target_[d];
        }
        obs::JsonWriter w;
        w.field("settled", settled);
        w.field("steps", static_cast<std::int64_t>(steps));
        w.field("sim_seconds", steps * params_.dt);
        w.field("target_c", mean_target / params_.dimms);
        w.field("temp_c", mean_temp / params_.dimms);
        sink.emit("thermal_settle", w);
    }
    return settled;
}

Celsius
ThermalTestbed::temperature(int dimm) const
{
    DFAULT_ASSERT(dimm >= 0 && dimm < params_.dimms, "dimm out of range");
    return temperature_[dimm];
}

Celsius
ThermalTestbed::target(int dimm) const
{
    DFAULT_ASSERT(dimm >= 0 && dimm < params_.dimms, "dimm out of range");
    return target_[dimm];
}

} // namespace dfault::sys
