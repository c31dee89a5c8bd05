import math
from datetime import date
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eastudy.alignment import anchor_event
from eastudy.errors import (
    DegenerateRegressor,
    EmptyClass,
    InsufficientHistory,
    MissingBar,
    OutOfCalendarRange,
)
from eastudy.event_study import (
    AlignedReturns,
    EventFits,
    MarketModelFit,
    StudyConfig,
    abnormal_returns,
    aggregate_study,
    fit_events,
    fit_market_model,
    study_classes,
    summarize_car,
    z_critical,
)
from eastudy.model import DailyBar, Timing
from eastudy.reports import build_universe, label_stratum, stratum_labels
from eastudy.sentiment import EventPolarity
from eastudy.synth import SynthSpec, generate_with_truth
from eastudy.trading import curve_classes, hold_returns, trade_return_curves

from conftest import (
    anchor_columns,
    eastern,
    index_from_closes,
    make_calendar,
    make_dataset,
    make_event,
    records,
)


def ols_oracle(xs, ys):
    """Raw normal-equations OLS in exact rational arithmetic."""
    n = len(xs)
    X = [Fraction(x) for x in xs]
    Y = [Fraction(y) for y in ys]
    sx = sum(X)
    sy = sum(Y)
    sxx = sum(x * x for x in X)
    sxy = sum(x * y for x, y in zip(X, Y))
    det = n * sxx - sx * sx
    beta = (n * sxy - sx * sy) / det
    alpha = (sxx * sy - sx * sxy) / det
    ssr = sum((y - alpha - beta * x) ** 2 for x, y in zip(X, Y))
    return alpha, beta, ssr


def make_fit_scenario(index_values, stock_fn, n_days=140, day0_idx=125):
    """Calendar plus paired return dicts; day 0 sits late enough for 120 obs."""
    cal = make_calendar(date(2015, 1, 5), n_days)
    index_returns = {}
    stock_returns = {}
    for i, d in enumerate(cal.dates[1:], start=1):
        x = index_values[(i - 1) % len(index_values)]
        index_returns[d] = x
        stock_returns[d] = stock_fn(i, x)
    ev = make_event("AAA", eastern(*_ymd(cal.dates[day0_idx - 1]), 17, 0), Timing.AFTER_CLOSE)
    anchor = anchor_event(ev, cal)
    assert anchor.day0 == cal.dates[day0_idx]
    return cal, anchor, stock_returns, index_returns


def _ymd(d: date):
    return d.year, d.month, d.day


class TestZCritical:
    def test_one_percent_two_sided(self):
        assert z_critical(0.01) == pytest.approx(2.5758293035489004, abs=1e-9)

    def test_five_percent_two_sided(self):
        assert z_critical(0.05) == pytest.approx(1.959963984540054, abs=1e-9)


class TestFitMarketModel:
    def test_stock_equals_index(self):
        _, anchor, stock, index = make_fit_scenario(
            [0.01, -0.02, 0.005, 0.015], lambda i, x: x
        )
        fit = fit_market_model(stock, index, anchor)
        assert fit.alpha == pytest.approx(0.0, abs=1e-15)
        assert fit.beta == pytest.approx(1.0, abs=1e-12)
        assert fit.sigma2_eps == pytest.approx(0.0, abs=1e-15)
        assert fit.n_obs == 120

    def test_half_beta(self):
        _, anchor, stock, index = make_fit_scenario(
            [0.01, -0.02, 0.005, 0.015], lambda i, x: 0.5 * x
        )
        fit = fit_market_model(stock, index, anchor)
        assert fit.beta == pytest.approx(0.5, abs=1e-12)
        assert fit.alpha == pytest.approx(0.0, abs=1e-15)

    def test_exact_alternating_residuals(self):
        # index cycle (a, b, b, a) with residual cycle (+e, -e, +e, -e) keeps
        # the residuals orthogonal to the regressor, so OLS recovers the
        # planted line exactly and SSR = 120 e^2.
        a, b, e = 0.012, -0.004, 0.001
        alpha_true, beta_true = 0.0003, 1.1

        def stock_fn(i, x):
            eps = e if (i - 1) % 2 == 0 else -e
            return alpha_true + beta_true * x + eps

        _, anchor, stock, index = make_fit_scenario([a, b, b, a], stock_fn)
        fit = fit_market_model(stock, index, anchor)
        assert fit.alpha == pytest.approx(alpha_true, abs=1e-15)
        assert fit.beta == pytest.approx(beta_true, abs=1e-12)
        assert fit.sigma2_eps == pytest.approx(120 * e * e / 118, rel=1e-12)

    def test_matches_exact_normal_equations_oracle(self):
        rng = np.random.Generator(np.random.PCG64(99))
        xs = rng.normal(0.0004, 0.01, size=120)
        ys = 0.0002 + 1.3 * xs + rng.normal(0, 0.008, size=120)

        def stock_fn(i, x):
            return float(ys[(i - 1) % 120])

        def index_fn_values():
            return [float(v) for v in xs]

        _, anchor, stock, index = make_fit_scenario(index_fn_values(), stock_fn)
        fit = fit_market_model(stock, index, anchor)
        # oracle consumes the exact window the fit used
        window = sorted(d for d in index if d <= anchor.day(-2))[-120:]
        alpha, beta, ssr = ols_oracle([index[d] for d in window], [stock[d] for d in window])
        assert abs(fit.alpha - float(alpha)) <= 1e-10
        assert abs(fit.beta - float(beta)) <= 1e-10
        assert abs(fit.sigma2_eps - float(ssr / 118)) <= 1e-10

    def test_residuals_orthogonal_and_centered(self):
        rng = np.random.Generator(np.random.PCG64(5))
        xs = rng.normal(0, 0.01, size=120)
        ys = rng.normal(0, 0.02, size=120)
        _, anchor, stock, index = make_fit_scenario(
            [float(v) for v in xs], lambda i, x: float(ys[(i - 1) % 120])
        )
        fit = fit_market_model(stock, index, anchor)
        window = sorted(d for d in index if d <= anchor.day(-2))[-120:]
        resid = [stock[d] - fit.alpha - fit.beta * index[d] for d in window]
        assert abs(math.fsum(resid)) <= 1e-10
        assert abs(math.fsum(r * index[d] for r, d in zip(resid, window))) <= 1e-10

    def test_insufficient_history(self):
        cal = make_calendar(date(2015, 6, 1), 60)
        ev = make_event("AAA", eastern(*_ymd(cal.dates[49]), 17, 0), Timing.AFTER_CLOSE)
        anchor = anchor_event(ev, cal)
        returns = {d: 0.01 for d in cal.dates[1:]}
        with pytest.raises(InsufficientHistory):
            fit_market_model(returns, returns, anchor)

    def test_degenerate_regressor(self):
        _, anchor, stock, index = make_fit_scenario([0.01], lambda i, x: 0.02)
        with pytest.raises(DegenerateRegressor):
            fit_market_model(stock, index, anchor)


class TestAbnormalReturns:
    def test_zero_when_stock_tracks_index(self):
        from eastudy.event_study import MarketModelFit

        _, anchor, stock, index = make_fit_scenario(
            [0.01, -0.02, 0.005, 0.015], lambda i, x: x
        )
        fit = MarketModelFit(alpha=0.0, beta=1.0, sigma2_eps=0.0, n_obs=120)
        ars = abnormal_returns(fit, anchor, stock, index)
        assert len(ars) == 12
        assert all(a == pytest.approx(0.0, abs=1e-15) for a in ars)

    def test_day0_excess(self):
        from eastudy.event_study import MarketModelFit

        cal, anchor, stock, index = make_fit_scenario(
            [0.01, -0.02, 0.005, 0.015], lambda i, x: x
        )
        stock[anchor.day0] = index[anchor.day0] + 0.01
        fit = MarketModelFit(alpha=0.0, beta=1.0, sigma2_eps=0.0, n_obs=120)
        ars = abnormal_returns(fit, anchor, stock, index)
        assert ars[1] == pytest.approx(0.01, abs=1e-15)

    def test_intercept_only_model(self):
        from eastudy.event_study import MarketModelFit

        _, anchor, stock, index = make_fit_scenario(
            [0.01, -0.02, 0.005, 0.015], lambda i, x: 0.001
        )
        fit = MarketModelFit(alpha=0.001, beta=0.0, sigma2_eps=0.0, n_obs=120)
        ars = abnormal_returns(fit, anchor, stock, index)
        assert all(a == pytest.approx(0.0, abs=1e-15) for a in ars)

    def test_missing_bar(self):
        from eastudy.event_study import MarketModelFit

        _, anchor, stock, index = make_fit_scenario(
            [0.01, -0.02, 0.005, 0.015], lambda i, x: x
        )
        del stock[anchor.day0]
        fit = MarketModelFit(alpha=0.0, beta=1.0, sigma2_eps=0.0, n_obs=120)
        with pytest.raises(MissingBar):
            abnormal_returns(fit, anchor, stock, index)


TAUS = tuple(range(-1, 11))
CRIT = z_critical(0.01)


def spreadsheet_oracle(ar_rows, sigma2s):
    """Literal cell-by-cell evaluation of the aggregation formulas, in exact
    rationals (theta's square root evaluated in floats at the end)."""
    n = len(ar_rows)
    rows = [[Fraction(v) for v in row] for row in ar_rows]
    s2 = [Fraction(v) for v in sigma2s]
    out = []
    for j in range(len(TAUS)):
        ar_mean = sum(r[j] for r in rows) / n
        car = sum(sum(r[k] for r in rows) / n for k in range(j + 1))
        var = Fraction(j + 1, n * n) * sum(s2)
        theta = float(car) / math.sqrt(float(var)) if var > 0 else 0.0
        out.append((ar_mean, car, var, theta))
    return out


class TestSummarizeCar:
    def test_single_event_all_zero(self):
        cs = summarize_car(EventPolarity.NEUTRAL, [[0.0] * 12], [0.0], TAUS, CRIT)
        assert cs.car == (0.0,) * 12
        assert cs.theta == (0.0,) * 12
        assert cs.significant == (False,) * 12
        assert cs.n_events == 1

    def test_two_identical_events_day0_bump(self):
        # both events: AR = 0 except +0.02 at tau = 0, sigma^2 = 0.0001
        row = [0.0, 0.02] + [0.0] * 10
        cs = summarize_car(EventPolarity.POSITIVE, [row, row], [0.0001, 0.0001], TAUS, CRIT)
        assert cs.car[1] == pytest.approx(0.02, abs=1e-15)
        # var(CAR(-1, 0)) = (1/N^2) * sum_i 2 * sigma2_i = (1/4) * 2 * 0.0002
        assert cs.var_car[1] == pytest.approx(1e-4, rel=1e-12)
        assert cs.theta[1] == pytest.approx(2.0, rel=1e-12)
        assert not cs.significant[1]

    def test_matches_spreadsheet_on_two_event_fixture(self):
        ar1 = [0.011, 0.024, -0.006, 0.003, 0.001, -0.002, 0.0045, 0.0012,
               -0.0031, 0.0024, 0.0008, -0.0015]
        ar2 = [-0.004, 0.019, 0.002, -0.0015, 0.0032, 0.0011, -0.0027, 0.0041,
               0.0013, -0.0022, 0.0035, 0.0009]
        sigma2s = [0.00012, 0.00021]
        cs = summarize_car(EventPolarity.POSITIVE, [ar1, ar2], sigma2s, TAUS, CRIT)
        for j, (ar_mean, car, var, theta) in enumerate(spreadsheet_oracle([ar1, ar2], sigma2s)):
            assert math.isclose(cs.ar_mean[j], float(ar_mean), rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(cs.car[j], float(car), rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(cs.var_car[j], float(var), rel_tol=1e-12, abs_tol=1e-18)
            assert math.isclose(cs.theta[j], theta, rel_tol=1e-12, abs_tol=1e-12)

    def test_car_telescopes_exactly(self):
        rng = np.random.Generator(np.random.PCG64(3))
        rows = [[float(v) for v in rng.normal(0, 0.01, size=12)] for _ in range(5)]
        cs = summarize_car(EventPolarity.NEUTRAL, rows, [1e-4] * 5, TAUS, CRIT)
        # exact in the constructive direction: each CAR extends the previous
        # by that day's mean abnormal return, with no other terms involved
        for j in range(1, 12):
            assert cs.car[j] == cs.car[j - 1] + cs.ar_mean[j]

    def test_var_linear_in_window_length(self):
        rows = [[0.01] * 12, [0.02] * 12, [0.005] * 12]
        cs = summarize_car(EventPolarity.POSITIVE, rows, [2e-4, 1e-4, 3e-4], TAUS, CRIT)
        for j in range(12):
            assert cs.var_car[j] == pytest.approx((j + 1) * cs.var_car[0], rel=1e-12)
        assert all(b >= a for a, b in zip(cs.var_car, cs.var_car[1:]))

    def test_zero_variance_nonzero_car_is_significant(self):
        cs = summarize_car(EventPolarity.POSITIVE, [[0.01] * 12], [0.0], TAUS, CRIT)
        assert cs.theta[0] == math.inf
        assert cs.significant[0]

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            summarize_car(EventPolarity.POSITIVE, [], [], TAUS, CRIT)


def _any_thresholds():
    from eastudy.sentiment import PolarityThresholds

    return PolarityThresholds(t_low=-0.2, t_high=0.2)


def planted_scenario(seed=2024):
    spec = SynthSpec(
        seed=seed,
        n_tickers=12,
        n_days=390,
        events_per_ticker=10,
        first_event_day=130,
        event_spacing=25,
        afterclose_fraction=1.0,
        index_vol=0.008,
        idio_vol=0.008,
    )
    ds, truth = generate_with_truth(spec)
    universe = build_universe(ds)
    labeled = label_stratum(universe, Timing.AFTER_CLOSE, 0)
    return spec, ds, truth, labeled


class TestAggregateStudy:
    def test_planted_signal_recovery(self):
        spec, ds, truth, labeled = planted_scenario()
        truth_by_key = {(t.ticker, t.announce_at): t.polarity for t in truth}
        hits = sum(
            1 for le in labeled
            if truth_by_key[(le.event.ticker, le.event.announce_at)] == le.polarity
        )
        assert hits == len(labeled) == 120

        result = aggregate_study(labeled, ds)
        j0 = result.taus.index(0)
        pos = result.classes[EventPolarity.POSITIVE]
        neg = result.classes[EventPolarity.NEGATIVE]
        neu = result.classes[EventPolarity.NEUTRAL]
        assert pos.n_events == neg.n_events == neu.n_events == 40
        assert abs(pos.car[j0] - spec.jump_positive) <= 0.005
        assert abs(neg.car[j0] - spec.jump_negative) <= 0.005
        assert pos.significant[j0] and neg.significant[j0]
        assert not neu.significant[j0]

    def test_permuting_event_order_is_bit_identical(self):
        _, ds, _, labeled = planted_scenario()
        shuffled = list(labeled)
        rng = np.random.Generator(np.random.PCG64(1))
        rng.shuffle(shuffled)
        a = aggregate_study(labeled, ds)
        b = aggregate_study(shuffled, ds)
        assert a == b
        assert trade_return_curves(labeled, ds) == trade_return_curves(shuffled, ds)

    def test_empty_input(self):
        _, ds, _, _ = planted_scenario()
        with pytest.raises(EmptyClass):
            aggregate_study([], ds)

    def test_missing_bar_in_estimation_window_extends_lookback(self):
        # drop one mid-history bar: the two returns touching it disappear,
        # the fit reaches further back, and the event still aggregates
        spec = SynthSpec(seed=7, n_tickers=1, n_days=180, events_per_ticker=1,
                         first_event_day=150, afterclose_fraction=1.0)
        ds, _ = generate_with_truth(spec)
        gap_date = records(ds.index)[60].date
        ds_gapped = type(ds)(
            bars=ds.bars[ds.bars.day != np.datetime64(gap_date)],
            index=ds.index,
            tweets=ds.tweets,
            events=ds.events,
        )
        universe = build_universe(ds_gapped)
        labeled = label_stratum(universe, Timing.AFTER_CLOSE, 0,
                                thresholds=_any_thresholds())
        result = aggregate_study(labeled, ds_gapped)
        assert not result.skipped
        (cs,) = result.classes.values()
        assert cs.n_events == 1

    def test_missing_bar_inside_event_window_skips_event(self):
        spec = SynthSpec(seed=7, n_tickers=1, n_days=180, events_per_ticker=1,
                         first_event_day=150, afterclose_fraction=1.0)
        ds, truth = generate_with_truth(spec)
        gap_date = truth[0].day0
        ds_gapped = type(ds)(
            bars=ds.bars[ds.bars.day != np.datetime64(gap_date)],
            index=ds.index,
            tweets=ds.tweets,
            events=ds.events,
        )
        universe = build_universe(ds_gapped)
        labeled = label_stratum(universe, Timing.AFTER_CLOSE, 0,
                                thresholds=_any_thresholds())
        with pytest.raises(EmptyClass):
            aggregate_study(labeled, ds_gapped)  # the only event is skipped

    def test_event_with_thin_history_is_skipped(self):
        spec = SynthSpec(
            seed=5, n_tickers=2, n_days=160, events_per_ticker=2,
            first_event_day=40, event_spacing=100, afterclose_fraction=1.0,
        )
        ds, truth = generate_with_truth(spec)
        universe = build_universe(ds)
        labeled = label_stratum(universe, Timing.AFTER_CLOSE, 0)
        result = aggregate_study(labeled, ds)
        assert result.skipped  # the day-40 events lack 120 days of history
        assert all("InsufficientHistory" in why for _, _, why in result.skipped)


class TestStudyConfigChecks:
    @pytest.mark.parametrize("bad", [
        {"event_window": (3, 1)}, {"event_window": (-2, 10)},
        {"estimation_window_length": 2}, {"significance_level": 1.0},
    ])
    def test_refused_when_made_and_when_replaced(self, bad):
        with pytest.raises(ValueError):
            StudyConfig(**bad)
        with pytest.raises(ValueError):
            StudyConfig()._replace(**bad)
        assert StudyConfig()._replace(estimation_window_length=60) == StudyConfig(
            estimation_window_length=60)


class TestTickersTheDatasetLacks:
    """Labelled events of a ticker the dataset does not hold are skipped, and
    the other events are measured on their own rows: ZZZ sorts after every
    ticker of the dataset, SYAA between its first two."""

    @staticmethod
    def relabelled():
        _, ds, _, labeled = planted_scenario()
        renamed = {0: "ZZZ", 1: "SYAA"}
        labeled = [le._replace(event=le.event._replace(ticker=renamed.get(i, le.event.ticker)))
                   for i, le in enumerate(labeled)]
        return ds, labeled, labeled[:2], labeled[2:]

    def test_the_study_skips_them_as_without_price_history(self):
        ds, labeled, lacking, rest = self.relabelled()
        result = aggregate_study(labeled, ds)
        assert [(t, why) for t, _, why in result.skipped
                if t in ("ZZZ", "SYAA")] == [("SYAA", "no price history"),
                                                     ("ZZZ", "no price history")]
        assert result.classes == aggregate_study(rest, ds).classes

    def test_the_curves_skip_them_for_a_missing_bar(self):
        ds, labeled, lacking, rest = self.relabelled()
        curves = trade_return_curves(labeled, ds)
        day_m1 = {le.event.ticker: le.anchor.day(-1) for le in lacking}
        assert [(t, why) for t, _, why in curves.skipped
                if t in ("ZZZ", "SYAA")] == [
            (t, f"MissingBar: {t}: no closing price on {day_m1[t]}") for t in ("SYAA", "ZZZ")]
        assert curves.classes == trade_return_curves(rest, ds).classes


class TestSharedPerEventRows:
    """A stratum reading, through its mask and labels, the rows measured once
    over the whole universe gets what it gets by measuring its own events,
    skips included; rows that leave out an event of the stratum are refused."""

    @staticmethod
    def scenario():
        # first-round events lack estimation history; last-round events run
        # past the calendar's end, so both passes skip events in every stratum
        spec = SynthSpec(seed=3, n_tickers=12, n_days=220, events_per_ticker=3,
                         first_event_day=60, event_spacing=75)
        ds, _ = generate_with_truth(spec)
        return ds, build_universe(ds)

    @pytest.mark.parametrize("timing", list(Timing))
    @pytest.mark.parametrize("polarity_day", [0, -1])
    def test_same_result_as_a_stratum_of_its_own(self, timing, polarity_day):
        ds, universe = self.scenario()
        labeled = label_stratum(universe, timing, polarity_day)
        in_stratum = universe.stratum(timing)
        labels = stratum_labels(universe, timing, polarity_day)
        fits = fit_events(ds.prices, universe.day0, universe.events.code, universe.used)
        held = hold_returns(ds.prices, universe.day0, universe.events.code, universe.used)

        own = aggregate_study(labeled, ds)
        assert own.skipped and own.classes
        assert study_classes(fits, universe.events, in_stratum, labels, StudyConfig()) == own
        curves = trade_return_curves(labeled, ds)
        assert curves.skipped and curves.classes
        assert curve_classes(held, universe.events, in_stratum, labels) == curves

    def test_rows_that_miss_a_labeled_event_are_refused(self):
        ds, universe = self.scenario()
        in_stratum = universe.stratum(Timing.AFTER_CLOSE)
        labels = stratum_labels(universe, Timing.AFTER_CLOSE, 0)
        others = (ds.prices, universe.day0, universe.events.code,
                  universe.stratum(Timing.BEFORE_OPEN))
        with pytest.raises(ValueError):
            study_classes(fit_events(*others), universe.events, in_stratum, labels,
                          StudyConfig())
        with pytest.raises(ValueError):
            curve_classes(hold_returns(*others), universe.events, in_stratum, labels)


# --- the batched fit against the per-event loop it replaced -----------------


def ref_fit_aligned(returns, anchor, cfg):
    """One event's fit, as one 1-D closed-form OLS over its window."""
    end = anchor.day0_index + cfg.event_window[0] - 1
    if end >= len(returns.valid):
        raise OutOfCalendarRange(f"calendar index {end} out of range")
    length = cfg.estimation_window_length
    n_before = int(returns.valid_through[end]) if end >= 0 else 0
    if n_before < length:
        raise InsufficientHistory(
            f"{anchor.event.ticker}: {n_before} paired returns before the "
            f"event window, need {length}"
        )
    window = returns.valid_days[n_before - length:n_before]
    x = returns.index[window]
    y = returns.stock[window]
    x_mean, y_mean = x.mean(), y.mean()
    xc = x - x_mean
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise DegenerateRegressor("index returns are constant over the window")
    beta = float(xc @ (y - y_mean)) / sxx
    alpha = float(y_mean - beta * x_mean)
    resid = y - (alpha + beta * x)
    sigma2 = float(resid @ resid) / (length - 2)
    return MarketModelFit(alpha=alpha, beta=beta, sigma2_eps=sigma2, n_obs=length)


def ref_abnormal_returns_aligned(fit, anchor, returns, cfg):
    """One event's abnormal returns, or MissingBar naming the first day
    past the calendar's end or without a return."""
    days = anchor.day0_index + np.array(cfg.taus)
    inside = (days >= 0) & (days < len(returns.valid))
    served = inside.copy()
    served[inside] = returns.valid[days[inside]]
    if not served.all():
        j = int(np.argmin(served))
        if not inside[j]:
            raise MissingBar(
                f"{anchor.event.ticker}: calendar ends before relative day {cfg.taus[j]}"
            )
        raise MissingBar(
            f"{anchor.event.ticker}: no return on {anchor.calendar.dates[days[j]]}"
        )
    ars = returns.stock[days] - (fit.alpha + fit.beta * returns.index[days])
    return tuple(ars.tolist())


def ref_fit_events(anchors, ds, cfg):
    """The market model fitted and measured event by event."""
    ars = np.full((len(anchors), len(cfg.taus)), np.nan)
    sigma2 = np.full(len(anchors), np.nan)
    skips = [None if a is None else "" for a in anchors]
    aligned = {}
    for i, anchor in enumerate(anchors):
        if anchor is None:
            continue
        prices = ds.prices
        ticker = anchor.event.ticker
        if ticker not in aligned:
            row = ds.tickers.index(ticker)
            if np.count_nonzero(~np.isnan(prices.closes[row])) < 2:
                skips[i] = "no price history"
                continue
            stock, index = prices.returns[row], prices.index_returns
            aligned[ticker] = AlignedReturns(stock, index, ~np.isnan(stock) & ~np.isnan(index))
        try:
            fit = ref_fit_aligned(aligned[ticker], anchor, cfg)
            ars[i] = ref_abnormal_returns_aligned(fit, anchor, aligned[ticker], cfg)
        except (InsufficientHistory, MissingBar, DegenerateRegressor, OutOfCalendarRange) as exc:
            skips[i] = f"{type(exc).__name__}: {exc}"
            continue
        sigma2[i] = fit.sigma2_eps
    return EventFits(ars, sigma2, tuple(skips))


@st.composite
def fit_scenarios(draw):
    """Windows of 3 to 300 days (NumPy sums in pairwise blocks of 128), bars
    missing in estimation and event windows, an index flat up to a random
    day, events near both ends of the calendar, and tickers with one close
    (ONE) or none (NOB)."""
    length = draw(st.integers(3, 300))
    w0 = draw(st.integers(-1, 4))
    cfg = StudyConfig(event_window=(w0, w0 + draw(st.integers(0, 12))),
                      estimation_window_length=length)
    missing = draw(st.sampled_from([0.0, 0.01, 0.1]))  # the share of absent bars
    n_days = int(length * (1 + 3 * missing)) + draw(st.integers(20, 50))
    cal = make_calendar(date(2015, 1, 5), n_days)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = 1000.0 * np.cumprod(1 + rng.normal(0, 0.01, n_days))
    # the index return is 0.0 up to this day
    levels[:draw(st.sampled_from([0, n_days // 2, n_days]))] = levels[0]
    bars = [DailyBar("ONE", cal.dates[0], 10.0, 100)]
    for ticker in ("AAA", "BBB"):
        closes = 50.0 * np.cumprod(1 + rng.normal(0, 0.02, n_days))
        present = rng.random(n_days) >= missing
        bars += [DailyBar(ticker, d, c, 100) for d, c, p in
                 zip(cal.dates, closes.tolist(), present.tolist()) if p]
    day0s = st.one_of(st.integers(1, n_days - 1), st.integers(n_days - 20, n_days - 1))
    events = [
        make_event(ticker, eastern(*_ymd(cal.dates[day0 - 1]), 17, 0), Timing.AFTER_CLOSE)
        for ticker, day0 in draw(st.lists(
            st.tuples(st.sampled_from(("AAA", "BBB") * 3 + ("ONE", "NOB")), day0s),
            min_size=1, max_size=12, unique=True))
    ]
    ds = make_dataset(bars=bars, index=index_from_closes(cal.dates, levels.tolist()),
                      events=events)
    # an event left out (None) is not fitted
    anchors = [anchor_event(ev, cal) if draw(st.integers(0, 5)) != 3 else None
               for ev in records(ds.events)]
    return ds, anchors, cfg


class TestBatchedFitMatchesThePerEventLoop:
    @settings(max_examples=150)
    @given(fit_scenarios())
    def test_bit_for_bit(self, scenario):
        ds, anchors, cfg = scenario
        got = fit_events(*anchor_columns(anchors, ds), cfg)
        want = ref_fit_events(anchors, ds, cfg)
        assert got.ars.tobytes() == want.ars.tobytes()
        assert got.sigma2.tobytes() == want.sigma2.tobytes()
        assert got.skips == want.skips
