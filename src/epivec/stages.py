"""Disease stages, vaccine status, and network kinds.

Stage semantics used throughout the simulator:

* infectious in community networks: ASYMPTOMATIC, PRESYMPTOMATIC_MILD,
  PRESYMPTOMATIC_SEVERE, MILD_SYMPTOMATIC, SEVERE_SYMPTOMATIC
* isolated in care (never transmit): HOSPITALIZED, CRITICAL_ICU
* carrying an active infection (test positive, count toward the vaccination
  start trigger): all of the above seven stages
* terminal/absorbing: RECOVERED, DEAD; VACCINATED is reached only through
  sterilizing vaccine immunity and is likewise never left
"""

from enum import IntEnum, unique

import numpy as np

# Sentinel for "never happened / not scheduled" step indices.
NEVER = -1


@unique
class Stage(IntEnum):
    SUSCEPTIBLE = 0
    ASYMPTOMATIC = 1
    PRESYMPTOMATIC_MILD = 2
    PRESYMPTOMATIC_SEVERE = 3
    MILD_SYMPTOMATIC = 4
    SEVERE_SYMPTOMATIC = 5
    HOSPITALIZED = 6
    CRITICAL_ICU = 7
    RECOVERED = 8
    VACCINATED = 9
    DEAD = 10

    def __str__(self):
        return self.name.lower()


N_STAGES = len(Stage)
N_AGE_BANDS = 9   # 0-10, 11-20, ..., 71-80, 80+
N_OCCUPATIONS = 23  # occupation ids 1..23; 0 means "not employed"


@unique
class VaccineStatus(IntEnum):
    PRE_VACCINATION = 0
    FIRST_DOSE = 1
    FULLY_VACCINATED = 2


@unique
class NetworkKind(IntEnum):
    HOUSEHOLD = 0
    OCCUPATION = 1
    RANDOM = 2


N_NETWORK_KINDS = len(NetworkKind)

# Boolean lookup tables indexed by stage value; used by the vectorized engine
# (fancy indexing) and by the oracle (scalar indexing) alike.
_infectious = np.zeros(N_STAGES, dtype=bool)
_infectious[[Stage.ASYMPTOMATIC, Stage.PRESYMPTOMATIC_MILD, Stage.PRESYMPTOMATIC_SEVERE,
             Stage.MILD_SYMPTOMATIC, Stage.SEVERE_SYMPTOMATIC]] = True
INFECTIOUS_STAGE = _infectious

_asymp_like = np.zeros(N_STAGES, dtype=bool)
_asymp_like[[Stage.ASYMPTOMATIC, Stage.PRESYMPTOMATIC_MILD, Stage.PRESYMPTOMATIC_SEVERE]] = True
ASYMPTOMATIC_LIKE_STAGE = _asymp_like

_active = np.zeros(N_STAGES, dtype=bool)
_active[[Stage.ASYMPTOMATIC, Stage.PRESYMPTOMATIC_MILD, Stage.PRESYMPTOMATIC_SEVERE,
         Stage.MILD_SYMPTOMATIC, Stage.SEVERE_SYMPTOMATIC,
         Stage.HOSPITALIZED, Stage.CRITICAL_ICU]] = True
ACTIVE_INFECTION_STAGE = _active

STAGE_BY_NAME = {str(s): s for s in Stage}
