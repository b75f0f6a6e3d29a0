"""The social-media newsfeed workflow (paper Figure 1/2, "Workflow B").

"Generate social media newsfeed for Alice": classify the sentiment of recent
posts relevant to the user, then generate the personalised feed text.  This
is the second tenant used in the multi-tenant experiments.

The workload is defined as a declarative :class:`WorkflowSpec`
(:func:`newsfeed_spec`); ``compile_spec(newsfeed_spec(), inputs=posts)``
lowers it to a job over a caller's own posts.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.constraints import Constraint, ConstraintSet, MIN_COST
from repro.spec import WorkflowBuilder, WorkflowSpec


def newsfeed_spec(
    user: str = "Alice",
    constraints: Union[Constraint, ConstraintSet] = MIN_COST,
    quality_target: float = 0.85,
    post_count: Optional[int] = None,
) -> WorkflowSpec:
    """The declarative newsfeed-generation spec (paper Figure 2, Workflow B)."""
    builder = (
        WorkflowBuilder("newsfeed")
        .describe(f"Generate social media newsfeed for {user}")
        .inputs("posts", count=post_count)
        .stage("sentiment_analysis", "Run sentiment analysis on the recent posts")
        .then(
            "text_generation",
            f"Compose a personalised newsfeed for {user} from the posts",
        )
        .constraints(ConstraintSet.of(constraints))
    )
    # A falsy quality_target defers to the constraint set's own floor
    # (captured by .constraints above), matching the legacy factory's
    # ConstraintSet.of(constraints, quality_target) semantics.
    if quality_target:
        builder.quality(quality_target)
    return builder.build()
