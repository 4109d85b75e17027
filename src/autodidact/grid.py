"""Deterministic gridworlds for sequential decision tasks.

The environment is a walled grid with one agent.  Actions are N, S, E, W,
NOOP (0..4).  Moving into a wall or off the grid leaves the agent in place
with reward -1; arriving on the goal cell from elsewhere yields +1; everything
else is 0.  Observations pack the agent cell index with the four-neighbour
wall bits, so a program can navigate from local information alone.

Live runs record a trace step per action: the observation resulting from the
action, the reward, a digest of the solver state, and the action itself.  The
replay environment re-serves a recorded trace with no grid at all, which is
what makes preservation checks cheap and environment-free.  The VM hands
``act`` a function for the solver-state digest, and only live runs, whose
traces store it, call it: a replay never computes one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

ACT_N, ACT_S, ACT_E, ACT_W, ACT_NOOP = range(5)
_DELTAS = {ACT_N: (0, -1), ACT_S: (0, 1), ACT_E: (1, 0), ACT_W: (-1, 0), ACT_NOOP: (0, 0)}


@dataclass(frozen=True)
class GridWorld:
    width: int
    height: int
    walls: frozenset  # {(x, y), ...}
    start: tuple  # (x, y)
    goals: tuple  # candidate goal cells for task invention

    def blocked(self, x: int, y: int) -> bool:
        return not (0 <= x < self.width and 0 <= y < self.height) or (x, y) in self.walls

    def cell_index(self, pos: tuple) -> int:
        x, y = pos
        return y * self.width + x

    def observation(self, pos: tuple) -> int:
        x, y = pos
        walls = 0
        if self.blocked(x, y - 1):
            walls |= 8
        if self.blocked(x, y + 1):
            walls |= 4
        if self.blocked(x + 1, y):
            walls |= 2
        if self.blocked(x - 1, y):
            walls |= 1
        return (self.cell_index(pos) << 4) | walls

    def digest(self) -> str:
        payload = json.dumps(
            {
                "w": self.width,
                "h": self.height,
                "walls": sorted(self.walls),
                "start": list(self.start),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "walls": sorted(list(w) for w in self.walls),
            "start": list(self.start),
            "goals": [list(g) for g in self.goals],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GridWorld":
        return cls(
            width=int(data["width"]),
            height=int(data["height"]),
            walls=frozenset(tuple(w) for w in data["walls"]),
            start=tuple(data["start"]),
            goals=tuple(tuple(g) for g in data.get("goals", [])),
        )


@dataclass(frozen=True)
class EnvState:
    world: GridWorld
    agent: tuple
    goal: tuple


def env_step(env: EnvState, action: int):
    """Pure transition: returns (observation, reward, next env value)."""
    if action not in _DELTAS:
        raise ValueError(f"action {action} not in 0..4")
    dx, dy = _DELTAS[action]
    x, y = env.agent
    nx, ny = x + dx, y + dy
    if action != ACT_NOOP and env.world.blocked(nx, ny):
        reward = -1
        nx, ny = x, y
    else:
        moved = (nx, ny) != (x, y)
        reward = 1 if moved and (nx, ny) == env.goal else 0
    nxt = EnvState(env.world, (nx, ny), env.goal)
    return env.world.observation((nx, ny)), reward, nxt


class LiveEnv:
    """Mutable runner view over EnvState used by the VM; records the trace.

    With ``digests`` false every step's state digest is recorded as "": for
    a run whose trace only the goal check reads, which never reads them.
    """

    def __init__(self, world: GridWorld, goal: tuple, digests: bool = True):
        self.state = EnvState(world, world.start, goal)
        self.trace_steps: list[tuple] = []
        self.digests = digests

    def sense(self) -> int:
        return self.state.world.observation(self.state.agent)

    def act(self, action: int, solver_digest) -> int:
        """Take the action; ``solver_digest()`` gives the state digest to record."""
        obs, reward, self.state = env_step(self.state, action)
        self.trace_steps.append((obs, reward, solver_digest() if self.digests else "", action))
        return reward


class ReplayEnv:
    """Serves a recorded trace: no grid, cost proportional to trace length."""

    def __init__(self, steps: tuple, initial_obs: int):
        self.steps = steps
        self.initial_obs = initial_obs
        self.pos = 0
        self.diverged = False

    def sense(self) -> int:
        if self.pos == 0:
            return self.initial_obs
        return self.steps[self.pos - 1][0]

    def act(self, action: int, _solver_digest) -> int:
        if self.pos >= len(self.steps):
            self.diverged = True
            return 0
        obs, reward, _u, recorded_action = self.steps[self.pos]
        if action != recorded_action:
            self.diverged = True
        self.pos += 1
        return reward

    @property
    def exact(self) -> bool:
        return not self.diverged and self.pos == len(self.steps)


def shortest_path(world: GridWorld, src: tuple, dst: tuple):
    """BFS move list from src to dst, or None.  Neighbour order N, S, E, W."""
    if src == dst:
        return []
    frontier = [src]
    came: dict = {src: None}
    while frontier:
        nxt = []
        for pos in frontier:
            for action in (ACT_N, ACT_S, ACT_E, ACT_W):
                dx, dy = _DELTAS[action]
                cand = (pos[0] + dx, pos[1] + dy)
                if world.blocked(*cand) or cand in came:
                    continue
                came[cand] = (pos, action)
                if cand == dst:
                    moves = []
                    cur = cand
                    while came[cur] is not None:
                        prev, act = came[cur]
                        moves.append(act)
                        cur = prev
                    moves.reverse()
                    return moves
                nxt.append(cand)
        frontier = nxt
    return None


def bfs_cost(world: GridWorld) -> int:
    """Step charge for one path query: one step per cell the search may visit."""
    return world.width * world.height


# ---------------------------------------------------------------------------
# The shipped worlds.  Small, hand-checked, every listed goal reachable.
# ---------------------------------------------------------------------------


def _w(width, height, walls, start, goals):
    return GridWorld(width, height, frozenset(walls), start, tuple(goals))


WORLDS: tuple[GridWorld, ...] = (
    # 0: open 4x4 room
    _w(4, 4, [], (0, 0), [(3, 0), (0, 3), (3, 3), (1, 2)]),
    # 1: 5x5 with a centre pillar
    _w(5, 5, [(2, 2)], (0, 2), [(4, 2), (2, 0), (2, 4), (4, 4)]),
    # 2: 5x4 with an interior wall and a gap
    _w(5, 4, [(1, 1), (2, 1), (3, 1)], (0, 0), [(4, 0), (2, 2), (0, 3), (4, 3)]),
    # 3: 6x6 corridor maze
    _w(
        6,
        6,
        [(1, 1), (1, 2), (1, 3), (1, 4), (3, 0), (3, 1), (3, 2), (3, 4), (3, 5), (4, 4)],
        (0, 0),
        [(2, 5), (5, 0), (5, 5), (4, 2)],
    ),
)

WORLD_COUNT = len(WORLDS)
GOALS_PER_WORLD = 4
