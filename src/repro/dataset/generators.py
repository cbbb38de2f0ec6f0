"""Synthetic workload generators.

The paper evaluates on two real datasets that are not redistributable here:

* ``flight`` — U.S. flight records from the Bureau of Transportation
  Statistics (1M tuples, 35 attributes), and
* ``ncvoter`` — North Carolina voter registrations (5M tuples, 30
  attributes).

These generators produce synthetic relations with the structural properties
the algorithms are actually sensitive to:

* a mix of low-cardinality categorical, high-cardinality categorical and
  numeric columns,
* hierarchically correlated attributes, so that exact OFDs and OCs exist at
  several lattice levels,
* monotone derived columns with *injected per-cell errors*, so that
  approximate OCs with known, controllable approximation factors exist
  (these are the dependencies the paper's qualitative examples highlight,
  e.g. ``arrivalDelay ~ lateAircraftDelay`` at 9.5%), and
* near-key columns and heavy-tailed group sizes, which drive partition and
  equivalence-class shapes.

All generators are deterministic for a given seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataset.errors import (
    inject_pair_swaps,
    inject_scaling_errors,
    inject_value_replacements,
)
from repro.dataset.relation import Relation


# ---------------------------------------------------------------------------
# Planted-dependency ground truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantedOC:
    """Ground-truth record of an OC planted by a generator.

    ``approx_rows`` is the set of rows whose cells were perturbed; the true
    approximation factor of the OC ``context: a ~ b`` is at most
    ``len(approx_rows) / num_rows`` (removing the perturbed rows restores
    the dependency), which the tests and Exp-6 use as a reference.
    """

    a: str
    b: str
    context: Tuple[str, ...] = ()
    approx_rows: frozenset = frozenset()


@dataclass
class GeneratedWorkload:
    """A generated relation together with its planted ground truth."""

    relation: Relation
    planted_ocs: List[PlantedOC] = field(default_factory=list)
    description: str = ""

    @property
    def num_rows(self) -> int:
        return self.relation.num_rows


# ---------------------------------------------------------------------------
# Shared column factories
# ---------------------------------------------------------------------------


def _zipf_choices(rng: random.Random, num_values: int, num_rows: int,
                  exponent: float = 1.2) -> List[int]:
    """Draw ``num_rows`` category indices with a Zipf-like skew.

    Real categorical columns (airlines, counties) have heavy-tailed
    frequencies; group-size skew matters for per-class validation cost.
    """
    weights = [1.0 / (i + 1) ** exponent for i in range(num_values)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    choices = []
    for _ in range(num_rows):
        u = rng.random()
        lo, hi = 0, num_values - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        choices.append(lo)
    return choices


def _code_for(index: int, width: int = 3) -> str:
    """Deterministic uppercase code for an integer (``0 -> 'AAA'``)."""
    letters = []
    value = index
    for _ in range(width):
        letters.append(chr(ord("A") + value % 26))
        value //= 26
    return "".join(reversed(letters))


# ---------------------------------------------------------------------------
# flight-like generator
# ---------------------------------------------------------------------------


def generate_flight_like(
    num_rows: int,
    num_attributes: int = 10,
    error_rate: float = 0.08,
    seed: int = 0,
) -> GeneratedWorkload:
    """Generate a flight-records-like relation.

    The first ten attributes mirror the structure the paper's qualitative
    findings rely on; additional attributes (up to 35, matching the real
    dataset's width) are derived or weakly correlated extras used by the
    attribute-scalability experiment (Exp-2).

    Planted approximate OCs (approximation factor ≈ ``error_rate``):

    * ``arrivalDelay ~ lateAircraftDelay`` — delays are proportional except
      for a fraction of flights whose delay had other causes,
    * ``originAirportId ~ iataCode`` — the airport id enumerates airports in
      the same order as their IATA code, with a few mis-mapped codes,
    * ``distance ~ airTime`` (exact OC before noise; pair swaps injected).
    """
    if num_rows <= 0:
        raise ValueError("num_rows must be positive")
    rng = random.Random(seed)

    num_airports = max(10, min(300, num_rows // 20 + 10))
    num_airlines = 12

    airline_idx = _zipf_choices(rng, num_airlines, num_rows)
    origin_idx = _zipf_choices(rng, num_airports, num_rows)
    dest_idx = _zipf_choices(rng, num_airports, num_rows)

    flight_date = [20190101 + rng.randrange(0, 365) for _ in range(num_rows)]
    dep_time = [rng.randrange(0, 2400) for _ in range(num_rows)]

    distance = [50 + (abs(o - d) * 37 + rng.randrange(0, 25)) for o, d in
                zip(origin_idx, dest_idx)]
    air_time_clean = [int(20 + dist * 0.12) for dist in distance]
    late_aircraft_delay = [max(0, int(rng.gauss(15, 20))) for _ in range(num_rows)]
    arrival_delay_clean = [int(delay * 1.5) for delay in late_aircraft_delay]

    origin_airport_id = [10000 + idx * 7 for idx in origin_idx]
    iata_clean = [_code_for(idx) for idx in origin_idx]

    # Inject the planted errors.
    arrival_delay, delay_error_rows = inject_scaling_errors(
        arrival_delay_clean, error_rate, factor=7.0, seed=seed + 1
    )
    arrival_delay = [int(v) for v in arrival_delay]
    iata_code, iata_error_rows = inject_value_replacements(
        iata_clean, error_rate, [_code_for(i) for i in range(num_airports)],
        seed=seed + 2,
    )
    air_time, air_time_error_rows = inject_pair_swaps(
        air_time_clean, error_rate, seed=seed + 3
    )

    taxi_out = [rng.randrange(5, 45) for _ in range(num_rows)]
    carrier_group = [idx // 4 for idx in airline_idx]

    columns: Dict[str, List[object]] = {
        "flightDate": flight_date,
        "airline": [_code_for(i, 2) for i in airline_idx],
        "originAirportId": origin_airport_id,
        "iataCode": iata_code,
        "destAirportId": [10000 + idx * 7 for idx in dest_idx],
        "distance": distance,
        "airTime": air_time,
        "arrivalDelay": arrival_delay,
        "lateAircraftDelay": late_aircraft_delay,
        "depTime": dep_time,
        # -- attributes 11..35: derived / weakly correlated extras ------------
        "carrierGroup": carrier_group,
        "taxiOut": taxi_out,
        "elapsedTime": [a + t for a, t in zip(air_time_clean, taxi_out)],
        "distanceGroup": [d // 250 for d in distance],
        "arrTime": [(d + a) % 2400 for d, a in zip(dep_time, air_time_clean)],
        "securityDelay": [max(0, int(rng.gauss(0, 2))) for _ in range(num_rows)],
        "weatherDelay": [max(0, int(rng.gauss(2, 6))) for _ in range(num_rows)],
        "nasDelay": [max(0, int(rng.gauss(4, 8))) for _ in range(num_rows)],
        "cancelled": [1 if rng.random() < 0.02 else 0 for _ in range(num_rows)],
        "diverted": [1 if rng.random() < 0.01 else 0 for _ in range(num_rows)],
        "flightNum": [rng.randrange(1, 7000) for _ in range(num_rows)],
        "tailNum": ["N" + str(rng.randrange(100, 999)) for _ in range(num_rows)],
        "originState": [_code_for(idx % 50, 2) for idx in origin_idx],
        "destState": [_code_for(idx % 50, 2) for idx in dest_idx],
        "originCityId": [30000 + idx * 3 for idx in origin_idx],
        "destCityId": [30000 + idx * 3 for idx in dest_idx],
        "quarter": [(d // 100) % 100 // 4 + 1 for d in flight_date],
        "month": [(d // 100) % 100 for d in flight_date],
        "dayOfMonth": [d % 100 for d in flight_date],
        "dayOfWeek": [d % 7 for d in flight_date],
        "year": [d // 10000 for d in flight_date],
        "depDelay": [max(0, int(v * 0.8)) for v in arrival_delay_clean],
        "wheelsOff": [(d + t) % 2400 for d, t in zip(dep_time, taxi_out)],
        "wheelsOn": [(d + a - 5) % 2400 for d, a in zip(dep_time, air_time_clean)],
        "crsElapsedTime": [a + 15 for a in air_time_clean],
    }

    names = list(columns)
    if num_attributes > len(names):
        raise ValueError(
            f"flight-like generator supports at most {len(names)} attributes, "
            f"got {num_attributes}"
        )
    selected = names[:num_attributes]
    relation = Relation.from_columns({n: columns[n] for n in selected})

    planted = []
    if {"arrivalDelay", "lateAircraftDelay"} <= set(selected):
        planted.append(
            PlantedOC("arrivalDelay", "lateAircraftDelay",
                      approx_rows=frozenset(delay_error_rows))
        )
    if {"originAirportId", "iataCode"} <= set(selected):
        planted.append(
            PlantedOC("originAirportId", "iataCode",
                      approx_rows=frozenset(iata_error_rows))
        )
    if {"distance", "airTime"} <= set(selected):
        planted.append(
            PlantedOC("distance", "airTime",
                      approx_rows=frozenset(air_time_error_rows))
        )
    return GeneratedWorkload(
        relation=relation,
        planted_ocs=planted,
        description=(
            f"flight-like synthetic workload ({num_rows} rows x "
            f"{num_attributes} attributes, error_rate={error_rate}, seed={seed})"
        ),
    )


# ---------------------------------------------------------------------------
# ncvoter-like generator
# ---------------------------------------------------------------------------


def generate_ncvoter_like(
    num_rows: int,
    num_attributes: int = 10,
    error_rate: float = 0.1,
    seed: int = 0,
) -> GeneratedWorkload:
    """Generate a voter-registration-like relation.

    Planted approximate OCs:

    * ``municipalityAbbrv ~ municipalityDesc`` — abbreviations follow the
      alphabetical order of the full names except for a few irregular ones
      ("Charlotte" -> "CLT"), matching the paper's Exp-4 example,
    * ``countyId ~ zipCode`` — ZIP codes are assigned in county order except
      for a fraction of mis-entered codes,
    * ``streetAddress ~ mailAddress`` — mail address mirrors the street
      address except for a fraction of voters using PO boxes.

    The ``birthYear`` / ``age`` columns form an exact *inverse* relationship
    (a bidirectional OD, which the unidirectional canonical OC framework
    deliberately does not report); they are included to exercise that
    negative case.
    """
    if num_rows <= 0:
        raise ValueError("num_rows must be positive")
    rng = random.Random(seed)

    num_counties = 100
    num_municipalities = max(20, min(500, num_rows // 50 + 20))

    county_idx = _zipf_choices(rng, num_counties, num_rows)
    municipality_idx = _zipf_choices(rng, num_municipalities, num_rows)

    municipality_desc_clean = [f"CITY_{_code_for(idx)}" for idx in municipality_idx]
    municipality_abbrv_clean = [_code_for(idx) for idx in municipality_idx]

    birth_year = [1930 + rng.randrange(0, 75) for _ in range(num_rows)]
    age = [2020 - year for year in birth_year]
    zip_clean = [27000 + c * 5 + m % 5 for c, m in zip(county_idx, municipality_idx)]

    street_number = [rng.randrange(1, 9999) for _ in range(num_rows)]
    street_address_clean = [
        f"{num:05d} MAIN ST {_code_for(c, 2)}" for num, c in
        zip(street_number, county_idx)
    ]
    mail_address_clean = list(street_address_clean)

    registration_number = list(range(100000, 100000 + num_rows))
    rng.shuffle(registration_number)

    municipality_abbrv, abbrv_error_rows = inject_value_replacements(
        municipality_abbrv_clean, error_rate,
        [_code_for(i) for i in range(num_municipalities)], seed=seed + 11,
    )
    zip_code, zip_error_rows = inject_value_replacements(
        zip_clean, error_rate, zip_clean, seed=seed + 12,
    )
    mail_address, mail_error_rows = inject_value_replacements(
        mail_address_clean, error_rate,
        [f"PO BOX {rng.randrange(1, 999):04d}" for _ in range(50)], seed=seed + 13,
    )

    party_pool = ["DEM", "REP", "UNA", "LIB", "GRE"]
    precinct = [f"P{c:03d}-{m % 20:02d}" for c, m in zip(county_idx, municipality_idx)]

    columns: Dict[str, List[object]] = {
        "countyId": county_idx,
        "countyDesc": [f"COUNTY_{_code_for(idx, 2)}" for idx in county_idx],
        "municipalityDesc": municipality_desc_clean,
        "municipalityAbbrv": municipality_abbrv,
        "birthYear": birth_year,
        "age": age,
        "registrationNumber": registration_number,
        "streetAddress": street_address_clean,
        "mailAddress": mail_address,
        "zipCode": zip_code,
        # -- attributes 11..30 -------------------------------------------------
        "precinct": precinct,
        "party": [party_pool[_zipf_choices(rng, len(party_pool), 1)[0]]
                  for _ in range(num_rows)],
        "gender": [rng.choice(["M", "F", "U"]) for _ in range(num_rows)],
        "race": [rng.choice(["W", "B", "A", "I", "O", "U"]) for _ in range(num_rows)],
        "ethnicity": [rng.choice(["HL", "NL", "UN"]) for _ in range(num_rows)],
        "status": [rng.choice(["ACTIVE", "INACTIVE", "REMOVED"])
                   for _ in range(num_rows)],
        "registrationDate": [19800101 + rng.randrange(0, 400000)
                             for _ in range(num_rows)],
        "driverLicense": [1 if rng.random() < 0.8 else 0 for _ in range(num_rows)],
        "wardAbbrv": [f"W{m % 9}" for m in municipality_idx],
        "wardDesc": [f"WARD_{m % 9}" for m in municipality_idx],
        "schoolDistrict": [f"SD{c % 15:02d}" for c in county_idx],
        "fireDistrict": [f"FD{c % 25:02d}" for c in county_idx],
        "judicialDistrict": [f"JD{c % 30:02d}" for c in county_idx],
        "congressionalDistrict": [c % 13 + 1 for c in county_idx],
        "senateDistrict": [c % 50 + 1 for c in county_idx],
        "houseDistrict": [c % 120 + 1 for c in county_idx],
        "phoneAreaCode": [910 + c % 10 for c in county_idx],
        "birthState": [_code_for(rng.randrange(0, 50), 2) for _ in range(num_rows)],
        "voterStatusReason": [rng.choice(["VERIFIED", "CONFIRMATION", "MOVED"])
                              for _ in range(num_rows)],
        "absenteeFlag": [1 if rng.random() < 0.1 else 0 for _ in range(num_rows)],
    }

    names = list(columns)
    if num_attributes > len(names):
        raise ValueError(
            f"ncvoter-like generator supports at most {len(names)} attributes, "
            f"got {num_attributes}"
        )
    selected = names[:num_attributes]
    relation = Relation.from_columns({n: columns[n] for n in selected})

    planted = []
    if {"municipalityDesc", "municipalityAbbrv"} <= set(selected):
        planted.append(
            PlantedOC("municipalityDesc", "municipalityAbbrv",
                      approx_rows=frozenset(abbrv_error_rows))
        )
    if {"countyId", "zipCode"} <= set(selected):
        planted.append(
            PlantedOC("countyId", "zipCode", approx_rows=frozenset(zip_error_rows))
        )
    if {"streetAddress", "mailAddress"} <= set(selected):
        planted.append(
            PlantedOC("streetAddress", "mailAddress",
                      approx_rows=frozenset(mail_error_rows))
        )
    return GeneratedWorkload(
        relation=relation,
        planted_ocs=planted,
        description=(
            f"ncvoter-like synthetic workload ({num_rows} rows x "
            f"{num_attributes} attributes, error_rate={error_rate}, seed={seed})"
        ),
    )


# ---------------------------------------------------------------------------
# Fully controlled planted-OC generator (used for correctness experiments)
# ---------------------------------------------------------------------------


def generate_planted_oc_table(
    num_rows: int,
    approximation_factor: float,
    num_context_groups: int = 1,
    extra_attributes: int = 0,
    seed: int = 0,
) -> GeneratedWorkload:
    """Generate a table where one OC holds with an exact approximation factor.

    The relation has attributes ``ctx`` (optional context with
    ``num_context_groups`` groups), ``a`` and ``b`` such that the minimal
    removal set of ``{ctx}: a ~ b`` (or ``{}: a ~ b`` when
    ``num_context_groups == 1``) has *exactly*
    ``round(approximation_factor * num_rows)`` tuples: the perturbed rows'
    ``b`` values are pushed below every clean value that follows them, so
    each perturbed row must be removed and removing them suffices.
    """
    if not 0.0 <= approximation_factor < 1.0:
        raise ValueError("approximation_factor must be in [0, 1)")
    rng = random.Random(seed)
    num_bad = int(round(approximation_factor * num_rows))

    ctx = [i % num_context_groups for i in range(num_rows)]
    a_values = list(range(num_rows))
    # Clean b: strictly increasing with a within each context group.
    b_values = [value * 10 + 5 for value in a_values]

    # Never perturb the first row of a context group: a perturbed row with no
    # clean predecessor in its group could still start an LNDS, which would
    # make the minimal removal set one smaller than the planted count.
    eligible = range(num_context_groups, num_rows)
    if num_bad > len(eligible):
        raise ValueError(
            "approximation_factor too large for the number of context groups"
        )
    bad_rows = sorted(rng.sample(eligible, num_bad)) if num_bad else []
    for row in bad_rows:
        # Push b below every clean value so the row is in no LNDS unless it is
        # the only row of its group.
        b_values[row] = -1 - row

    columns: Dict[str, List[object]] = {"ctx": ctx, "a": a_values, "b": b_values}
    for extra in range(extra_attributes):
        columns[f"x{extra}"] = [rng.randrange(0, 5) for _ in range(num_rows)]
    relation = Relation.from_columns(columns)
    context = ("ctx",) if num_context_groups > 1 else ()
    planted = [PlantedOC("a", "b", context=context, approx_rows=frozenset(bad_rows))]
    return GeneratedWorkload(
        relation=relation,
        planted_ocs=planted,
        description=(
            f"planted OC workload ({num_rows} rows, factor={approximation_factor}, "
            f"groups={num_context_groups}, seed={seed})"
        ),
    )


def generate_random_table(
    num_rows: int,
    num_attributes: int,
    cardinality: int = 10,
    seed: int = 0,
) -> Relation:
    """Generate a uniformly random categorical table (no planted structure).

    Used as an adversarial workload: with independent uniform columns few
    dependencies hold, so the discovery framework's pruning gets little
    traction and validation cost dominates — the regime where the optimal
    and iterative validators differ the most.
    """
    rng = random.Random(seed)
    columns = {
        f"c{index}": [rng.randrange(0, cardinality) for _ in range(num_rows)]
        for index in range(num_attributes)
    }
    return Relation.from_columns(columns)


def generate_monotone_table(
    num_rows: int, num_attributes: int, noise: float = 0.0, seed: int = 0
) -> Relation:
    """Generate a table whose columns are all monotone in a hidden key.

    With ``noise == 0`` every pair of attributes is order compatible in the
    empty context, which maximises the number of valid OCs — the stress case
    for result bookkeeping and minimality pruning.
    """
    rng = random.Random(seed)
    base = sorted(rng.randrange(0, num_rows * 3) for _ in range(num_rows))
    columns: Dict[str, List[object]] = {}
    for index in range(num_attributes):
        scale = index + 1
        column = [value * scale + index for value in base]
        if noise > 0:
            column, _ = inject_pair_swaps(column, noise, seed=seed + index)
        columns[f"m{index}"] = column
    return Relation.from_columns(columns)
